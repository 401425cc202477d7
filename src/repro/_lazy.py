"""Lazy package re-exports (PEP 562): importing a package loads nothing.

Every ``repro`` package re-exports the public names of the modules
under it, and none of them imports those modules to do so.  A package
``__init__`` holds one table and hands it to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, submod_attrs={
        "engine": ("Simulator", "EventHandle"),
        "rc4": ("ksa", "crypt as rc4_crypt"),
    }, submodules=("units",))

``from repro.core import Simulator`` then imports ``repro.core.engine``
— and whatever *it* imports at module level — and nothing else, and
binds the result in the package namespace so the next access is a plain
attribute read.  The rule that keeps cold start proportional to use:
packages re-export lazily, leaf modules import what they use eagerly
at module level (so nothing is imported in the middle of a run), and a
third-party import lives in the module that uses it.
"""

from __future__ import annotations

import sys

# No ``typing`` import: it costs more than everything else in this
# module, and ``import repro`` should cost next to nothing.


def attach(package: str, submod_attrs: dict[str, tuple[str, ...]],
           submodules: tuple[str, ...] = ()) -> tuple:
    """Build ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``submod_attrs`` maps a submodule to the names it contributes
    (``"attr as alias"`` re-exports ``attr`` under ``alias``);
    ``submodules`` are exported as modules.  ``__all__`` is derived from
    the two, so each public name is written once.
    """
    table: dict[str, tuple[str, str | None]] = {
        name: (name, None) for name in submodules}
    for module, specs in submod_attrs.items():
        for spec in specs:
            attr, _, alias = spec.partition(" as ")
            table[alias or attr] = (module, attr)
    exported = sorted(table)

    def __getattr__(name: str) -> object:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        # __import__, not importlib.import_module: ``-X importtime`` only
        # gives a module its own row when the C import path loads it.
        __import__(f"{package}.{module}")
        value = sys.modules[f"{package}.{module}"]
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])).union(exported))

    return __getattr__, __dir__, exported
