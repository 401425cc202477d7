"""repro — a discrete-event wireless network simulation library.

Reproduction of "Wireless Networks": an IEEE 802.11 MAC/PHY simulator
with WPAN/WMAN/WWAN substrates and link-layer security, built on a
deterministic discrete-event kernel.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the experiment index.

Quickstart::

    from repro import Simulator, scenarios

    sim = Simulator(seed=1)
    bss = scenarios.build_infrastructure_bss(sim, station_count=2)
    bss.stations[0].send(bss.stations[1].address, b"hello")
    sim.run(until=1.0)

The subpackages follow the layering described in DESIGN.md:
``core`` (kernel) -> ``phy`` -> ``mac`` -> ``net``, with technology
families (``wpan``, ``wman``, ``wwan``), ``security``, ``adversary``,
``traffic``, ``mobility``, ``analysis`` and ``scenarios`` alongside.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__, {"core": ("Simulator",)},
    submodules=("adversary", "analysis", "core", "mac", "mobility", "net",
                "parallel", "phy", "routing", "scenarios", "security",
                "traffic", "wman", "wpan", "wwan"))
__all__.append("__version__")
