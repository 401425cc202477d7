"""One binding point between the Python reference and its compiled twins.

Each layer declares the methods :mod:`repro.core._ckernel` can serve in a
:class:`Table` (``engine.SIMULATOR``, ``transceiver.RADIO``,
``dcf.MAC``); :func:`bind` alone picks a side, by one rule: the twin
only on a ``kernel="c"`` simulator, and only while every object the
twins read by offset is of exactly its class (a subclass may override
anything).  Exactness is checked here, at bind, for the bound object and
what it holds for life (``Table.reads``); what a step reads off frames
and per-radio holders (the frame, its mode and modulation, the config,
capture model and trace sink, the MAC's counters) the twin checks per
step, handing the step to the reference on a miss.  The first twin of a
table hands the extension its class set (:func:`resolve`), once per
process.  :data:`tally` counts the sides, so
a silent fallback fails by name (``tests/test_macro_pins.py``) where
bit-identical pins cannot see it.
"""

from collections import Counter
from itertools import repeat
from types import MethodType
from typing import Any, Callable, Dict, NamedTuple, Tuple

#: ``(owner, slot, side)`` -> binds, side ``"twin"`` or ``"reference"``.
tally: Counter = Counter()


class Table(NamedTuple):
    owner: str                   # the class that binds, as the tally names it
    layer: str                   # the extension's name for its class set
    members: Dict[str, Any]      # that set, by the names the extension reads
    reads: Callable[[Any], Tuple[Any, ...]]  # obj -> what twins read by offset
    exact: Tuple[type, ...]      # the class each of those must be, exactly
    slots: Tuple[str, ...]       # the methods a twin can serve


#: ``(extension, layer)`` -> the twins of a resolved class set, in order.
_twins: Dict[Tuple[Any, str], Tuple[Any, ...]] = {}


def resolve(ext: Any, table: Table) -> None:
    """Hand ``ext`` the table's class set and keep its twins."""
    ext.resolve(table.layer, table.members)
    _twins[ext, table.layer] = tuple(getattr(ext, name)
                                     for name in table.slots)


def bind(obj: Any, table: Table, sim: Any) -> Dict[str, Any]:
    """Slot name -> what serves it on ``obj``, as ``sim``'s kernel has it."""
    ext = sim._ext
    if ext is not None and tuple(map(type, table.reads(obj))) == table.exact:
        if (ext, table.layer) not in _twins:
            resolve(ext, table)
        side = "twin"
        served = map(MethodType, _twins[ext, table.layer], repeat(obj))
    else:
        side = "reference"
        served = map(getattr, repeat(obj), table.slots)
    for name in table.slots:
        tally[table.owner, name, side] += 1
    return dict(zip(table.slots, served))
