"""repro — a discrete-event wireless network simulation library.

Reproduction of "Wireless Networks": an IEEE 802.11 MAC/PHY simulator
with WPAN/WMAN/WWAN substrates and link-layer security, built on a
deterministic discrete-event kernel.  README.md is the system
inventory; ``benchmarks/bench_*.py`` are the experiments (E1-E13).

Quickstart::

    from repro import Simulator, scenarios

    sim = Simulator(seed=1)
    bss = scenarios.build_infrastructure_bss(sim, station_count=2)
    bss.stations[0].send(bss.stations[1].address, b"hello")
    sim.run(until=1.0)

The subpackages follow the layering of README.md, "Architecture":
``core`` (kernel) -> ``phy`` -> ``mac`` -> ``net``, with technology
families (``wpan``, ``wman``, ``wwan``), ``security``, ``adversary``,
``traffic``, ``mobility``, ``analysis`` and ``scenarios`` alongside.
"""

from ._lazy import attach

__version__ = "1.0.0"

#: The behaviour epoch: which rules made a stored result.  It moves, by
#: one, with every deliberate change of what a seeded run computes —
#: a stat, a trace or a telemetry stream — and with nothing else.  The
#: committed pins record it (``tests/fixtures/pins.json``), and a
#: campaign manifest refuses to resume under another one.
BEHAVIOUR_EPOCH = 1

__getattr__, __dir__, __all__ = attach(
    __name__, {"core": ("Simulator",)},
    submodules=("adversary", "analysis", "core", "mac", "mobility", "net",
                "parallel", "phy", "routing", "scenarios", "security",
                "traffic", "wman", "wpan", "wwan"))
__all__ += ["BEHAVIOUR_EPOCH", "__version__"]
