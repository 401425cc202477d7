"""Spans around the benchmark's own calls and the per-layer cost ledger.

Both are measured from outside the program: spans are recorded by the
benchmark around its calls into ``repro``, and the ledger buckets a
``cProfile`` of one run by the module each profiled function lives in.
Spans inside the program (an instrumented dispatch loop) are a later
change.
"""

from __future__ import annotations

import cProfile
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import ROOT

_REPRO = str(ROOT / "src" / "repro") + "/"
_BENCH = str(ROOT / "bench") + "/"

#: The ledger rows BENCHMARK.json names.  Layers are module names;
#: ``phy.models`` is every ``repro/phy`` module but the two named ones
#: (propagation, interference, error models, modulation, standards).
LAYERS = ("core", "phy.channel", "phy.transceiver", "phy.models", "mac",
          "net", "routing", "traffic", "mobility", "adversary")

#: Self time nobody in ``repro`` or ``bench`` caused (profiler plumbing).
UNATTRIBUTED = "unattributed"


class Spans:
    """In-memory ``(name, start, end, parent, repeat)`` records."""

    def __init__(self) -> None:
        self.records: List[List[Any]] = []
        self.repeat = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[List[Any]]:
        """Time a block; the yielded record's ``[2] - [1]`` is its
        duration once the block has ended."""
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, self.repeat]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def as_json(self) -> List[Dict[str, Any]]:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "repeat": repeat}
                for name, start, end, parent, repeat in self.records]


def duration(record: List[Any]) -> float:
    return record[2] - record[1]


def _layer_of(code: Any) -> Optional[str]:
    """The layer a profiled function belongs to; ``None`` for builtins,
    the standard library and anything else outside repro and bench."""
    if isinstance(code, str):  # a builtin: cProfile labels it by name
        return None
    path = code.co_filename
    if path.startswith(_BENCH):
        return "bench"
    if not path.startswith(_REPRO):
        return None
    parts = path[len(_REPRO):].split("/")
    if len(parts) == 1:
        return parts[0].removesuffix(".py")
    if parts[0] == "phy":
        module = parts[1].removesuffix(".py")
        return f"phy.{module}" if module in ("channel", "transceiver") \
            else "phy.models"
    return parts[0]


def profile_ledger(call: Callable[[], None]) -> Dict[str, Any]:
    """Run ``call`` under cProfile and bucket its cost by layer.

    Every function defined under ``src/repro/<package>/`` is charged to
    that package.  Builtins, the standard library and the C kernel's
    ``run`` have no layer of their own: each caller edge's share of
    their self time goes to the calling function's layer (followed
    through further foreign callers when needed), so ``_ckernel.run``
    lands in ``core`` through ``Simulator.run``.

    ``calls`` counts calls into a layer's own functions plus the calls
    those functions make directly into foreign code — whole numbers
    that repeat exactly for a seed.
    """
    profiler = cProfile.Profile()
    start = perf_counter()
    profiler.enable()
    try:
        call()
    finally:
        profiler.disable()
    wall_s = perf_counter() - start

    entries = {id(entry.code): entry for entry in profiler.getstats()}
    layers = {key: _layer_of(entry.code) for key, entry in entries.items()}
    #: callee -> [(caller, edge)] for callees without a layer.
    incoming: Dict[int, List[Tuple[int, Any]]] = {}
    for key, entry in entries.items():
        for edge in entry.calls or ():
            if layers.get(id(edge.code)) is None:
                incoming.setdefault(id(edge.code), []).append((key, edge))

    shares: Dict[int, Dict[str, float]] = {}

    def share(key: int, active: frozenset = frozenset()) -> Dict[str, float]:
        """Which layers a function's callers make it work for."""
        layer = layers[key]
        if layer is not None:
            return {layer: 1.0}
        if key in shares:
            return shares[key]
        mix: Dict[str, float] = {}
        edges = [(caller, edge) for caller, edge in incoming.get(key, ())
                 if caller not in active]
        total = sum(edge.totaltime for _, edge in edges)
        for caller, edge in edges:
            weight = edge.totaltime / total if total > 0 else 1 / len(edges)
            for name, part in share(caller, active | {key}).items():
                mix[name] = mix.get(name, 0.0) + weight * part
        if not mix:
            mix = {UNATTRIBUTED: 1.0}
        if not active:
            shares[key] = mix
        return mix

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    edges_out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for key, entry in entries.items():
        layer = layers[key]
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + entry.inlinetime
            calls[layer] = calls.get(layer, 0) + entry.callcount
        elif key not in incoming:
            self_s[UNATTRIBUTED] = self_s.get(UNATTRIBUTED, 0.0) \
                + entry.inlinetime
        owner = layer or max(share(key).items(), key=lambda kv: kv[1])[0]
        for edge in entry.calls or ():
            callee_layer = layers.get(id(edge.code))
            if callee_layer is None:
                # Foreign callee: this edge's self time is the caller's.
                for name, part in share(key).items():
                    self_s[name] = self_s.get(name, 0.0) \
                        + part * edge.inlinetime
                if layer is not None:
                    calls[layer] += edge.callcount
                continue
            cell = edges_out.setdefault(owner, {}).setdefault(
                callee_layer, {"calls": 0, "cum_s": 0.0})
            cell["calls"] += edge.callcount
            cell["cum_s"] += edge.totaltime
    return {
        "wall_s": wall_s,
        "profiled_s": sum(entry.inlinetime for entry in entries.values()),
        "self_s": dict(sorted(self_s.items())),
        "calls": dict(sorted(calls.items())),
        "edges": edges_out,
    }
