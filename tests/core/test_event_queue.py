"""``_ckernel.EventQueue`` against its specification.

On ``kernel="c"`` ``sim._heap`` is the extension's queue of ``(time,
seq)``-keyed structs; on ``kernel="python"`` it is a list under
``heapq``.  ``seq`` is unique, so ``(time, seq)`` is a total order and
every correct priority queue pops the same sequence: the list *is* the
specification, and a hypothesis state machine drives the two side by
side.  The rest pins what a state machine cannot reach by name: the
failure paths of ``push`` (nothing changes when it refuses), the
collector (an entry holds its ``Timer``, the ``Timer`` its
``Simulator``, the ``Simulator`` the queue) and the run loop's rule that
no pointer into the array outlives a callback.

The whole module skips when the extension is not built; CI's
compiled-kernel lane also runs it under ``-X dev``.
"""

import gc
import heapq
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import Simulator
from repro.core.engine import EventHandle, Timer, ckernel_available

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


def _queue():
    from repro.core import _ckernel
    return _ckernel.EventQueue()


class _DuckHandle:
    """What the run loop's last branch serves: neither ``None``, nor a
    ``Timer``, nor an ``EventHandle``."""
    _cancelled = False
    callback = print
    args = ()


# Times whose float is exactly their value (the queue's key is
# ``float(time)``): floats, ints, bools, Fractions on the binary grid.
_POOL = [0.0, -0.0, 0.5, math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0),
         1, 1.0, True, False, Fraction(1, 2), Fraction(3, 4), 2, 1e-9,
         math.inf]
_TIMES = st.one_of(
    st.sampled_from(_POOL),                      # ties, ±0.0, 1-ulp steps
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=10),
    st.builds(Fraction, st.integers(0, 1 << 12), st.just(1 << 10)))


class QueueAgainstHeapq(RuleBasedStateMachine):
    """Same operations on ``EventQueue`` and on ``heapq`` over a list;
    after every step they must be indistinguishable."""

    def __init__(self):
        super().__init__()
        self.queue = _queue()
        self.model = []
        self.count = itertools.count()
        self.forged = itertools.count(-1, -1)   # explicit seqs, unique too
        self.sim = Simulator(kernel="python")

    def _push(self, entry):
        self.queue.push(entry)
        heapq.heappush(self.model, entry)

    def _seq(self):
        seq = self.queue.next_seq()
        assert seq == next(self.count) and type(seq) is int
        return seq

    @rule(time=_TIMES, argument=st.integers())
    def push_raw(self, time, argument):
        self._push((time, self._seq(), None, print, (argument,)))

    @rule(time=_TIMES, version=st.integers(min_value=0))
    def push_timer(self, time, version):
        self._push((time, self._seq(), Timer(self.sim, print), version))

    @rule(time=_TIMES)
    def push_handle(self, time):
        seq = self._seq()
        self._push((time, seq, EventHandle(time, seq, print, ())))

    @rule(time=_TIMES)
    def push_duck_handle(self, time):
        self._push((time, self._seq(), _DuckHandle()))

    @rule(time=_TIMES)
    def push_under_an_explicit_seq(self, time):
        # What a run loop's push-back and a forged entry do: the seq
        # comes with the tuple, the counter is not drawn from.
        self._push((time, next(self.forged), None, print, ()))

    @precondition(lambda self: self.model)
    @rule()
    def pop(self):
        got, expected = self.queue.pop(), heapq.heappop(self.model)
        assert got == expected
        assert type(got[0]) is type(expected[0])    # an int stays an int
        assert repr(got[0]) == repr(expected[0])    # and -0.0 stays -0.0
        assert type(got[1]) is int

    @rule()
    def clear(self):
        self.queue.clear()
        self.model.clear()

    @invariant()
    def indistinguishable(self):
        assert len(self.queue) == len(self.model)
        assert bool(self.queue) == bool(self.model)
        if self.model:
            assert self.queue[0] == self.model[0]
        else:
            with pytest.raises(IndexError):
                self.queue[0]
        assert sorted(self.queue) == sorted(self.model)


TestQueueAgainstHeapq = QueueAgainstHeapq.TestCase
TestQueueAgainstHeapq.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)


def test_equal_times_pop_in_seq_order_whatever_the_push_order():
    queue = _queue()
    seqs = list(range(200))
    random.Random(5).shuffle(seqs)
    for seq in seqs:
        queue.push((0.25, seq, None, print, ()))
    assert [queue.pop()[1] for _ in seqs] == sorted(seqs)


def test_mixed_type_times_order_by_value_and_come_back_as_pushed():
    queue = _queue()
    times = [2, 0.5, Fraction(3, 4), True, 0.0, -0.0, 3.0, 1]
    for seq, time in enumerate(times):
        queue.push((time, seq, None, print, ()))
    popped = [queue.pop()[0] for _ in times]
    # Ties (0.0 / -0.0, True / 1) fall to the seq, as tuples do.
    assert [repr(time) for time in popped] == [
        "0.0", "-0.0", "0.5", "Fraction(3, 4)", "True", "1", "2", "3.0"]


def test_next_seq_counts_from_zero_and_survives_clear():
    queue = _queue()
    count = itertools.count()
    for _ in range(5):
        assert queue.next_seq() == next(count)
    queue.push((1.0, queue.next_seq(), None, print, ()))
    next(count)
    queue.clear()
    assert queue.next_seq() == next(count) == 6


def test_pop_and_head_of_an_empty_queue_raise_index_error():
    queue = _queue()
    assert len(queue) == 0 and not queue and list(queue) == []
    with pytest.raises(IndexError):
        queue.pop()
    with pytest.raises(IndexError):
        queue[0]
    queue.push((1.0, 0, None, print, ()))
    queue.pop()
    with pytest.raises(IndexError):
        queue.pop()


@pytest.mark.parametrize("entry, error", [
    ([1.0, 0, None, print, ()], TypeError),             # not a tuple
    ((1.0, 0), ValueError),                              # 2 items
    ((1.0, 0, None, print, (), "extra"), ValueError),    # 6 items
    ((math.nan, 0, None, print, ()), ValueError),        # orders with nothing
    (("soon", 0, None, print, ()), TypeError),           # no real number
    ((None, 0, None, print, ()), TypeError),
    ((1.0, 0.5, None, print, ()), TypeError),            # seq not an int
    ((1.0, "0", None, print, ()), TypeError),
    ((1.0, 1 << 63, None, print, ()), OverflowError),    # not a machine word
    ((1.0, -(1 << 63) - 1, None, print, ()), OverflowError),
])
def test_a_malformed_push_raises_before_the_queue_changed(entry, error):
    queue = _queue()
    kept = [(0.5, queue.next_seq(), None, print, ("kept",)),
            (0.75, queue.next_seq(), Timer(Simulator(kernel="python"),
                                           print), 3)]
    for good in kept:
        queue.push(good)
    with pytest.raises(error):
        queue.push(entry)
    assert sorted(queue) == kept and len(queue) == 2
    assert queue.next_seq() == 2            # a push draws no seq
    assert [queue.pop(), queue.pop()] == kept


def test_growth_across_the_initial_capacity():
    queue = _queue()
    rng = random.Random(11)
    entries = [(rng.random(), seq, None, print, (seq,))
               for seq in range(5000)]      # 64 -> 8192 slots, 7 doublings
    for entry in entries:
        queue.push(entry)
    assert len(queue) == 5000 and queue[0] == min(entries)
    assert [queue.pop() for _ in entries] == sorted(entries)
    assert not queue


class TestCollection:
    """entry -> Timer -> Simulator -> queue is a cycle only the queue's
    ``tp_traverse`` / ``tp_clear`` let the collector break."""

    def test_an_armed_simulator_dropped_without_running_is_collected(self):
        class Cargo:
            pass

        sim = Simulator(kernel="c")
        timer = Timer(sim, print)
        timer.schedule(1.0)
        sim.schedule(2.0, print)
        cargo = Cargo()                     # held by a raw entry only
        sim.schedule_fast(3.0, print, cargo)
        dead = [weakref.ref(sim), weakref.ref(cargo)]
        del sim, timer, cargo
        gc.collect()
        assert [ref() for ref in dead] == [None, None]

    def test_build_run_drop_repeats_leave_the_object_count_flat(self):
        def one_life():
            sim = Simulator(kernel="c")
            timers = [Timer(sim, print) for _ in range(8)]
            for index, timer in enumerate(timers):
                timer.schedule(0.1 * index)
                timer.schedule(0.1 * index + 0.05)      # superseded trash
                sim.schedule(0.07 * index, len, ())
                sim.schedule_fast(0.03 * index, len, ())
            sim.run(until=0.3)                          # dropped mid-life
            assert len(sim._heap) > 8

        for _ in range(5):
            one_life()
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(200):
            one_life()
        gc.collect()
        assert len(gc.get_objects()) <= before + 10


class TestCallbacksUnderTheCompiledLoop:
    """A callback may push, clear or raise: ``_ckernel.run`` holds no
    pointer into the array across it, and ends the way the Python loop
    does — ``_running`` reset, ``_events_executed`` flushed, the popped
    entry gone, the rest intact, a following ``run()`` carrying on."""

    @staticmethod
    def _both(scenario):
        reference, compiled = scenario("python"), scenario("c")
        assert compiled == reference
        return compiled

    def test_a_callback_that_pushes_10000_entries(self):
        def scenario(kernel):
            sim = Simulator(kernel=kernel)
            fired = []

            def burst():
                for index in range(10_000):     # regrows the array mid-pop
                    sim.schedule_fast(0.5 + index * 1e-6, fired.append, index)

            sim.schedule_fast(0.5, burst)
            sim.schedule(0.75, fired.append, "survivor")
            sim.run(until=0.6)
            mid = (sim._running, sim._events_executed, len(sim._heap),
                   repr(sim.now), list(fired))
            sim.run()
            return mid, fired, sim._events_executed, sim.pending_events

        mid, fired, executed, pending = self._both(scenario)
        assert mid == (False, 1, 10_001, "0.6", [])
        assert fired == ["survivor"] + list(range(10_000))
        assert (executed, pending) == (10_002, 0)

    def test_a_callback_that_clears_the_queue(self):
        def scenario(kernel):
            sim = Simulator(kernel=kernel)
            fired = []
            timer = Timer(sim, print)

            def wipe():
                sim.clear()                     # frees the array mid-loop
                sim.schedule_fast(0.1, fired.append, "after-clear")

            sim.schedule_fast(0.5, wipe)
            for index in range(100):
                sim.schedule_fast(0.6 + index, fired.append, "dropped")
            dropped = sim.schedule(0.7, fired.append, "dropped")
            timer.schedule(0.8)
            sim.run(until=2.0)
            mid = (sim._running, sim._events_executed, len(sim._heap),
                   repr(sim.now), dropped.cancelled, timer.armed)
            sim.schedule_fast(0.5, fired.append, "next")
            sim.run()
            return mid, fired, sim._events_executed, repr(sim.now)

        mid, fired, executed, now = self._both(scenario)
        assert mid == (False, 2, 0, "2.0", True, False)
        assert fired == ["after-clear", "next"]
        assert (executed, now) == (3, "2.5")

    @pytest.mark.parametrize("budget", [None, 10])
    def test_a_callback_that_raises(self, budget):
        def scenario(kernel):
            sim = Simulator(kernel=kernel)
            fired = []
            timer = Timer(sim, lambda: fired.append("timer"))

            def boom():
                raise ValueError("boom")

            sim.schedule(0.1, fired.append, "before")
            sim.schedule_fast(0.2, boom)
            sim.schedule(0.3, fired.append, "after")
            timer.schedule(0.4)
            with pytest.raises(ValueError, match="boom"):
                sim.run(until=1.0, max_events=budget)
            mid = (sim._running, sim._events_executed, len(sim._heap),
                   repr(sim.now), sim.pending_events)
            sim.run(until=1.0, max_events=budget)
            return mid, fired, sim._events_executed, repr(sim.now)

        mid, fired, executed, now = self._both(scenario)
        assert mid == (False, 2, 2, "0.2", 2)       # boom is gone, two wait
        assert fired == ["before", "after", "timer"]
        assert (executed, now) == (4, "1.0")

    def test_the_reentrancy_guard_sees_a_run_from_inside_a_callback(self):
        from repro.core.errors import SimulationError
        sim = Simulator(kernel="c")
        seen = []

        def reenter():
            with pytest.raises(SimulationError, match="re-entrantly"):
                sim.run()
            seen.append(len(sim._heap))

        sim.schedule_fast(0.1, reenter)
        sim.schedule_fast(0.2, seen.append, "later")
        sim.run()
        assert seen == [1, "later"] and not sim._running
