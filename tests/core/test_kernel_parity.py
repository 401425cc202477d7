"""Randomized two-kernel parity harness.

The compiled kernel (``repro.core._ckernel``) claims bit-identity with
the pure-Python reference loop: identical pop order, identical clock
and counter writes, identical exception/stop behaviour.  The golden
captures prove that on the 14 macros; this harness probes the corners
macros never hit — randomized interleavings of ``schedule`` /
``schedule_fast`` / ``Timer`` re-anchor / cancel, nested scheduling
from inside callbacks, mid-run ``stop()``, every run-loop branch
(until-only, budget-only, both, drain) — and requires the two kernels
to produce byte-equal fingerprints.  Every ``Timer`` arm in it goes
through ``sim._arm``, so the harness holds the compiled timer-arm
primitive to the Python one as well; the last test does the same for
``sim._fan_out`` directly.  (The compiled receive edges have their own
harness: ``tests/phy/test_edge_parity.py``.)

The whole module skips when the extension is not built (parity needs
both kernels); CI's compiled-kernel lane builds it first.
"""

import random

import pytest

from repro.core import Simulator
from repro.core.engine import Timer, ckernel_available
from repro.core.trace import TraceLog
from repro.faults import InvariantChecker

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


def _drive(kernel: str, seed: int):
    """Run one randomized mixed workload on ``kernel``; return its
    full observable fingerprint.

    Every callback logs the repr-exact clock AND the live executed
    counter — the latter pins the until-only fast branch's documented
    stale-counter semantics (the local is flushed at exit), which the
    compiled kernel must reproduce exactly for telemetry byte-identity.
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

    # One segment per run-loop branch: until-only (the stale-counter
    # fast path), budget-only, both, then drain.
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
        "kernel": None,   # overwritten below; keep keys identical
    }


@pytest.mark.parametrize("seed", range(8))
def test_randomized_workload_parity(seed):
    reference = _drive("python", seed)
    compiled = _drive("c", seed)
    for result in (reference, compiled):
        result.pop("kernel")
    assert reference == compiled
    assert reference["executed"] > 20   # the workload actually ran


def test_randomized_workloads_are_not_degenerate():
    # Across the parametrized seeds the harness must exercise every
    # ingredient at least once: timer fires and cancels would silently
    # vanish from the parity claim if the distribution drifted.
    saw_timer = saw_cancel = False
    for seed in range(8):
        result = _drive("python", seed)
        if any(entry[0] == "timer" for entry in result["log"]):
            saw_timer = True
        if result["cancelled"] > 0:
            saw_cancel = True
    assert saw_timer and saw_cancel


def test_same_time_ties_pop_in_seq_order_on_both_kernels():
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []
        timer = Timer(sim, lambda: log.append("timer"))
        sim.schedule_fast(0.5, log.append, "fast-0")
        sim.schedule(0.5, log.append, "handle-1")
        timer.schedule_at(0.5)
        sim.schedule_fast(0.5, log.append, "fast-3")
        sim.run()
        return log

    expected = ["fast-0", "handle-1", "timer", "fast-3"]
    assert run("python") == expected
    assert run("c") == expected


def test_midrun_exception_leaves_identical_state():
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []

        def boom():
            raise ValueError("boom")

        sim.schedule(0.1, log.append, "a")
        sim.schedule_fast(0.2, boom)
        sim.schedule(0.3, log.append, "c")
        with pytest.raises(ValueError, match="boom"):
            sim.run(until=1.0)   # the executed-in-a-local fast branch
        # The finally block must flush counters and clear _running even
        # on the exception path; the survivor event is still live.
        assert not sim._running
        InvariantChecker(sim, strict=True).check_counter_parity()
        return log, repr(sim.now), sim._events_executed, sim.pending_events

    assert run("python") == run("c")
    log, now, executed, pending = run("c")
    assert log == ["a"] and executed == 2 and pending == 1


def test_stop_from_callback_parity():
    def run(kernel):
        sim = Simulator(kernel=kernel)
        log = []
        sim.schedule(0.1, log.append, "a")
        sim.schedule(0.2, sim.stop)
        sim.schedule(0.3, log.append, "never")
        first = sim.run(until=1.0)
        second = sim.run(until=1.0)   # resumes past the stop
        return log, repr(first), repr(second), sim._events_executed

    assert run("python") == run("c")
    log, first, second, executed = run("c")
    assert log == ["a", "never"]
    assert (first, second) == ("0.2", "1.0")


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


def _heap_shape(sim):
    """Every queued entry, callables replaced by their names, in pop
    order: ``(time, seq)`` is a total order, so pop order and depth are
    what the two queues owe each other — array layout is not (the
    ``kernel="c"`` queue keeps structs in a heap of its own)."""
    def plain(item):
        if isinstance(item, Timer):
            return "timer"
        if isinstance(item, tuple):
            return tuple(plain(part) for part in item)
        return getattr(item, "__name__", None) or repr(item)
    return [tuple(plain(part) for part in entry)
            for entry in sorted(sim._heap, key=lambda entry: entry[:2])]


def test_scheduling_primitives_build_identical_entries():
    """``sim._arm`` / ``sim._fan_out`` are the Python functions on one
    kernel and the extension's on the other: same entries, same seq
    draws, same counters, for float and non-float times alike, and the
    same partial state when a plan entry is malformed."""
    def begins(transmission, power):
        pass

    def ends(transmission):
        pass

    def run(kernel):
        sim = Simulator(kernel=kernel)
        fired = []
        timer = Timer(sim, lambda: fired.append(repr(sim.now)))
        sim._arm(timer, 0.25)
        sim._arm(timer, 0.5)            # re-anchor: supersedes 0.25
        plan = ((begins, ends, 1e-9, 1e-7), (begins, ends, 2e-9, 0),
                (begins, ends, 3e-9, 3.3e-7))
        sim._fan_out(sim, plan, "frame", 1e-3)
        sim._fan_out(sim, list(plan[:1]), "frame", 1)   # int airtime
        with pytest.raises(ValueError):
            sim._fan_out(sim, plan[:1] + ((begins, ends, 1e-9),), "x", 1e-3)
        shape = (_heap_shape(sim), sim._scheduled, sim._cancelled_events,
                 timer._version, repr(timer._time))
        sim._arm(timer, 2)              # an int deadline
        sim.run()
        return shape, fired, repr(sim.now), sim._events_executed

    assert run("c") == run("python")
    shape, fired, now, executed = run("c")
    assert fired == ["2"] and executed == 11
    assert shape[1:4] == (10, 1, 2)     # the malformed plan counted nothing


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
