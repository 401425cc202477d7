"""Randomized two-kernel parity harness.

The compiled kernel (``repro.core._ckernel``) claims bit-identity with
the pure-Python reference loop: identical pop order, identical clock
and counter writes, identical stop behaviour.  The golden
captures prove that on every committed spec; this harness probes the
corners specs never hit — randomized interleavings of ``schedule`` /
``schedule_fast`` / ``Timer`` re-anchor / cancel, nested scheduling
from inside callbacks, mid-run ``stop()``, every ``run`` signature
(until-only, budget-only, both, drain) — and requires the two kernels
to produce byte-equal fingerprints, the per-shape dispatch and
lazy-drop tallies (``engine.SHAPE_COUNTS``) included.  Every ``Timer``
arm in it goes through ``sim._arm``, so the harness holds the compiled
timer-arm primitive to the Python one as well; one test holds
``sim._fan_out``'s grouping from a given start, one both primitives
pushing into a populated queue, and one that telemetry's dispatch probe
leaves the compiled loop in place.  (Each scheduling slot called
alone, the compiled receive edges and every callback, entry or handle
that raises under the loop are ``tests/test_slot_differential.py``'s.)

The whole module skips when the extension is not built (parity needs
both kernels); CI's compiled-kernel lane builds it first.
"""

import random

import pytest

from repro.core import Simulator
from repro.core.engine import SHAPE_COUNTS, Timer, ckernel_available
from repro.core.trace import TraceLog
from repro.faults import InvariantChecker
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


def _drive(kernel: str, seed: int):
    """Run one randomized mixed workload on ``kernel``; return its
    full observable fingerprint.

    Every callback logs the repr-exact clock AND the stored executed
    counter — the latter pins the documented stale-counter semantics
    (every loop holds it in a local written back at exit), which the
    compiled kernel must reproduce exactly.
    """
    rng = random.Random(seed)
    trace = TraceLog(capacity=None, enabled=True)
    sim = Simulator(seed=0, trace=trace, kernel=kernel)
    log = []
    handles = []
    timers = []

    def timer_cb(index):
        log.append(("timer", index, repr(sim.now), sim._events_executed))

    timers.extend(Timer(sim, lambda i=i: timer_cb(i)) for i in range(4))

    def cb(tag):
        log.append((tag, repr(sim.now), sim._events_executed))
        trace.record(sim.now, "harness", "cb", tag=tag)
        roll = rng.random()
        if roll < 0.25:
            sim.schedule_fast(rng.random() * 0.1, cb, tag + 1000)
        elif roll < 0.45:
            handles.append(sim.schedule(rng.random() * 0.1, cb, tag + 2000))
        elif roll < 0.55 and handles:
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.70:
            timers[rng.randrange(4)].schedule(rng.random() * 0.05)
        elif roll < 0.75:
            timers[rng.randrange(4)].cancel()
        elif roll < 0.78:
            sim.stop()
        # else: leaf event, schedule nothing

    for tag in range(40):
        roll = rng.random()
        if roll < 0.4:
            sim.schedule_fast(rng.random() * 0.6, cb, tag)
        elif roll < 0.8:
            handles.append(sim.schedule(rng.random() * 0.6, cb, tag))
        else:
            timers[rng.randrange(4)].schedule(rng.random() * 0.6)
    for victim in rng.sample(handles, len(handles) // 5):
        victim.cancel()

    # One segment per ``run`` signature: until-only, budget-only, both,
    # then drain.
    marks = [sim.run(until=0.15),
             sim.run(max_events=25),
             sim.run(until=0.45, max_events=10_000),
             sim.run()]
    InvariantChecker(sim, strict=True).check_counter_parity()
    return {
        "log": log,
        "marks": [repr(m) for m in marks],
        "trace": [record.format() for record in trace],
        "now": repr(sim.now),
        "scheduled": sim._scheduled,
        "executed": sim._events_executed,
        "cancelled": sim._cancelled_events,
        "pending": sim.pending_events,
        "heap_len": len(sim._heap),
        "counts": _counts(sim),
    }


def _counts(sim):
    return tuple(getattr(sim, name) for name in SHAPE_COUNTS)


@pytest.mark.parametrize("seed", range(8))
def test_randomized_workload_parity(seed):
    reference = _drive("python", seed)
    assert _drive("c", seed) == reference
    assert reference["executed"] > 20   # the workload actually ran
    fast, timers, handles, _, _ = reference["counts"]
    assert fast + timers + handles == reference["executed"]


def test_randomized_workloads_are_not_degenerate():
    # Across the parametrized seeds the harness must exercise every
    # ingredient at least once: timer fires and cancels would silently
    # vanish from the parity claim if the distribution drifted.
    totals = [0] * len(SHAPE_COUNTS)
    for seed in range(8):
        result = _drive("python", seed)
        totals = [a + b for a, b in zip(totals, result["counts"])]
    assert all(totals), dict(zip(SHAPE_COUNTS, totals))


def test_exotic_until_comparison_parity():
    # Non-float horizons (ints, Fractions) must take the rich-compare
    # fallback on both kernels and stop at the same instant.
    from fractions import Fraction

    def run(kernel, until):
        sim = Simulator(kernel=kernel)
        log = []
        for i in range(6):
            sim.schedule_fast(float(i), log.append, i)
        sim.run(until=until)
        return log, repr(sim.now)

    for until in (3, Fraction(7, 2)):
        assert run("python", until) == run("c", until)


def test_fan_out_from_a_given_start_builds_identical_entries():
    """``sim._fan_out``'s fifth argument, the base time a boundary ghost
    fans out from: the same entries on both kernels whether it is given
    or omitted (``None``), ``start + delay`` and ``start + (delay +
    duration)`` parenthesized as from ``now``, for a non-float start as
    for a float one; and a wrong arity is a ``TypeError`` on both."""
    from fractions import Fraction

    def begins(transmission, power):
        pass

    def ends(transmission):
        pass

    # 0.1 + (0.2 + 0.3) != (0.1 + 0.2) + 0.3: the grouping shows.
    plan = ((begins, ends, 1e-9, 0.2), (begins, ends, 2e-9, 0))

    def run(kernel):
        sim = Simulator(kernel=kernel)
        sim.schedule(0.05, lambda: None)
        sim.run(until=0.05)
        sim._fan_out(sim, plan, "now", 0.3)
        sim._fan_out(sim, plan, "omitted", 0.3, None)
        sim._fan_out(sim, plan, "float", 0.3, 0.1)
        sim._fan_out(sim, plan[:1], "int", 0.3, 1)
        sim._fan_out(sim, plan[:1], "fraction", 0.3, Fraction(1, 3))
        for args in ((sim, plan, "x"), (sim, plan, "x", 0.3, 0.1, 0.0)):
            with pytest.raises(TypeError):
                sim._fan_out(*args)
        entries = [(repr(entry[0]), entry[1], entry[4][0])
                   for entry in sorted(sim._heap, key=lambda e: e[:2])]
        return entries, sim._scheduled

    assert run("c") == run("python")
    entries, scheduled = run("c")
    assert scheduled == 1 + 2 * (2 + 2 + 2 + 1 + 1)
    times = {tag: [time for time, _seq, owner in entries if owner == tag]
             for tag in ("now", "omitted", "float", "int", "fraction")}
    assert times["now"] == times["omitted"] == [
        repr(0.05 + 0), repr(0.05 + 0.2), repr(0.05 + (0 + 0.3)),
        repr(0.05 + (0.2 + 0.3))]
    assert times["float"] == [repr(0.1 + 0), repr(0.1 + 0.2),
                              repr(0.1 + (0 + 0.3)), repr(0.1 + (0.2 + 0.3))]
    assert repr(0.1 + (0.2 + 0.3)) != repr((0.1 + 0.2) + 0.3)
    assert times["int"] == [repr(1 + 0.2), repr(1 + (0.2 + 0.3))]
    assert times["fraction"] == [repr(Fraction(1, 3) + 0.2),
                                 repr(Fraction(1, 3) + (0.2 + 0.3))]


def _midlife_schedule(sim):
    """One fixed schedule of all three entry shapes on ``sim``, run to
    t=0.1 with at least 100 entries left queued (superseded timer trash
    among them), then run out over the other ``run`` signatures while
    ``sim._arm`` / ``sim._fan_out`` keep pushing into the populated
    queue.  Returns what fired as ``(repr(now), callback name)``, the
    closing counters and the shape tallies."""
    fired = []

    def named(name):
        def callback(*_args):
            fired.append((repr(sim.now), name))
        callback.__name__ = name
        return callback

    begins, ends = named("begins"), named("ends")
    timers = [Timer(sim, named(f"timer{index}")) for index in range(60)]

    def rearm():
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
    sim.run(until=0.3)
    sim.run(max_events=50)
    sim.run()
    return fired, (sim._scheduled, sim._events_executed,
                   sim._cancelled_events, sim.pending_events,
                   len(sim._heap), repr(sim.now)), _counts(sim)


def test_midlife_pushes_into_a_populated_queue_identically():
    reference = _midlife_schedule(Simulator(kernel="python"))
    assert _midlife_schedule(Simulator(kernel="c")) == reference
    fired, counters, counts = reference
    assert {name for _now, name in fired} >= {
        "handle", "raw", "timer0", "begins", "ends"}
    assert counters[3:5] == (0, 0)          # drained, nothing pending
    assert all(counts)                       # every shape fired and dropped


def test_dispatch_probe_keeps_the_compiled_loop():
    """Arming the dispatch probe changes nothing about which loop runs:
    ``sim.run`` stays the class method on the compiled kernel, and the
    probe's counters, booked at ``finish()``, are the tallies the Python
    kernel keeps for the same schedule."""
    def probed(kernel):
        sim = Simulator(kernel=kernel)
        hub = Telemetry(sim).instrument_kernel(dispatch=True)
        _midlife_schedule(sim)
        assert "run" not in vars(sim) and sim.kernel == kernel
        hub.finish()
        return tuple(hub.registry.get("kernel", metric, shape=shape).value
                     for metric, shape in (
                         ("dispatch", "fast"), ("dispatch", "timer"),
                         ("dispatch", "handle"), ("lazy_drops", "timer"),
                         ("lazy_drops", "handle")))

    python_counts = _midlife_schedule(Simulator(kernel="python"))[2]
    assert probed("c") == probed("python") == python_counts
