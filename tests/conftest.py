"""Shared fixtures for the repro test suite."""

import pathlib
import subprocess
import sys

import pytest

from repro.core import Simulator
from repro.core.engine import (ckernel_available, default_kernel,
                               resolve_kernel)
from repro.mac.addresses import reset_allocator
from repro.traffic.generators import _SourceBase


def _build_kernel():
    """Bring ``repro.core._ckernel`` up to date with its source (a
    compile in a fresh checkout, an mtime check afterwards), so a
    machine with a compiler proves the compiled kernel against the
    Python one in tier-1 instead of skipping those tests.  A failed
    build says so on stderr, removes any stale ``.so`` and leaves the
    session on the pure-Python kernel; the warning below then counts
    what goes unproven."""
    script = pathlib.Path(__file__).resolve().parents[1] \
        / "tools" / "build_kernel.py"
    subprocess.run([sys.executable, str(script)], stdout=subprocess.DEVNULL,
                   check=False)


# At import: test modules ask ``ckernel_available()`` while they are
# collected, and the first probe's answer is cached for the process.
_build_kernel()


def pytest_report_header(config):
    """Which event kernel this session's simulators run on."""
    if ckernel_available():
        return (f"repro kernel: {resolve_kernel()} (REPRO_KERNEL="
                f"{default_kernel()}; repro.core._ckernel is built)")
    return "repro kernel: python (repro.core._ckernel is NOT built)"


def pytest_report_collectionfinish(config, items):
    """Say how much goes unproven without the extension.  Printed after
    collection because only then is the count known, and because pytest
    drops the header under ``-q`` (the tier-1 command) but not this."""
    if ckernel_available():
        return []
    skipping = sum(
        1 for item in items
        if any(marker.args and marker.args[0] is True
               and marker.kwargs.get("reason", "").startswith(
                   "compiled kernel not built")
               for marker in item.iter_markers("skipif")))
    return [f"WARNING: repro.core._ckernel is NOT built: {skipping} kernel "
            f"parity/selector tests will SKIP, so the compiled kernel is "
            f"not proven equal to the Python one in this session.",
            "         The build was attempted and failed; see: "
            "PYTHONPATH=src python tools/build_kernel.py"]


@pytest.fixture(autouse=True)
def _fresh_addresses():
    """Give every test a clean MAC address space and flow-id space, so
    RNG stream names derived from them are reproducible regardless of
    test execution order."""
    reset_allocator()
    _SourceBase._next_flow_id = 1
    yield
    reset_allocator()
    _SourceBase._next_flow_id = 1


@pytest.fixture
def sim():
    """A deterministic simulator with a fixed seed."""
    return Simulator(seed=42)


def _midlife_schedule(kernel, midlife=None):
    """One fixed schedule of all three entry shapes, run to t=0.1, handed
    to ``midlife(sim)`` with at least 100 entries queued (superseded
    timer trash among them), then run out.  Returns what fired as
    ``(repr(now), callback name)`` and the closing counters: the same
    for every ``kernel`` and every loop ``midlife`` switches to."""
    from repro.core.engine import Timer
    sim = Simulator(kernel=kernel)
    fired = []

    def named(name):
        def callback(*_args):
            fired.append((repr(sim.now), name))
        callback.__name__ = name
        return callback

    begins, ends = named("begins"), named("ends")
    timers = [Timer(sim, named(f"timer{index}")) for index in range(60)]

    def rearm():
        # What edges bound before the switch keep doing after it: arm
        # and fan out through the primitives the constructor chose.
        sim._arm(timers[0], sim.now + 0.05)
        sim._fan_out(sim, [(begins, ends, 1e-9, 1e-7)] * 3, "frame", 1e-3)

    for index, timer in enumerate(timers):
        sim.schedule(0.01 * (index + 1), named("handle"))
        sim.schedule_fast(0.005 + 0.01 * index, named("raw"))
        timer.schedule(0.02 + 0.007 * index)
        timer.schedule(0.021 + 0.007 * index)   # supersedes the first
        if index % 7 == 0:
            sim.schedule(0.3 + 0.01 * index, named("cancelled")).cancel()
    for moment in (0.15, 0.35, 0.55):
        sim.schedule_fast(moment, rearm)
    sim.run(until=0.1)
    assert len(sim._heap) >= 100
    if midlife is not None:
        midlife(sim)
    sim.run(until=0.3)
    sim.run(max_events=50)
    sim.run()
    return fired, (sim._scheduled, sim._events_executed,
                   sim._cancelled_events, sim.pending_events,
                   len(sim._heap), repr(sim.now))


@pytest.fixture
def midlife_schedule():
    """:func:`_midlife_schedule`, for the suites that switch a populated
    ``kernel="c"`` simulator to another dispatch loop mid-life."""
    return _midlife_schedule
