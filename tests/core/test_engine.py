"""Tests for the discrete-event kernel."""

import math

import pytest

from repro.core import SchedulingError, SimulationError, Simulator
from repro.core.engine import PeriodicTask


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(0.3, fired.append, "c")
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, sim):
        fired = []
        for label in "abcdef":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == list("abcdef")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_and_inf_delays_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(math.inf, lambda: None)

    def test_schedule_at_before_now_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_args_are_passed(self, sim):
        received = []
        sim.schedule(0.1, lambda a, b: received.append((a, b)), 1, "x")
        sim.run()
        assert received == [(1, "x")]

    def test_call_now_runs_after_current_event(self, sim):
        order = []

        def outer():
            sim.call_now(order.append, "inner")
            order.append("outer")

        sim.schedule(0.1, outer)
        sim.run()
        assert order == ["outer", "inner"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(0.1, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_count_excludes_cancelled(self, sim):
        keep = sim.schedule(0.1, lambda: None)
        drop = sim.schedule(0.2, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.pending


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0

    def test_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_remaining_events_fire_on_second_run(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_stop_halts_processing(self, sim):
        fired = []
        sim.schedule(0.1, lambda: (fired.append("first"), sim.stop()))
        sim.schedule(0.2, fired.append, "second")
        sim.run()
        assert fired == ["first"]

    def test_max_events_budget(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(0.1 * (index + 1), fired.append, index)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(0.1, nested)
        with pytest.raises(SimulationError):
            sim.run()

    @pytest.mark.parametrize("budget", ["3", [3]], ids=["a string",
                                                       "a list"])
    def test_a_bad_budget_leaves_the_simulator_runnable(self, sim, budget):
        fired = []
        sim.schedule(0.1, fired.append, "x")
        with pytest.raises(TypeError):
            sim.run(max_events=budget)
        sim.run()
        assert fired == ["x"]

    def test_clear_cancels_everything(self, sim):
        fired = []
        sim.schedule(0.1, fired.append, "x")
        sim.clear()
        sim.run()
        assert fired == []

    def test_events_executed_counter(self, sim):
        for index in range(4):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_executed == 4


class TestPeriodicTask:
    def test_fires_at_period(self, sim):
        times = []
        PeriodicTask(sim, 0.5, lambda: times.append(sim.now))
        sim.run(until=2.1)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_offset_controls_first_firing(self, sim):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), offset=0.25)
        sim.run(until=2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_cancel_stops_firing(self, sim):
        count = []
        task = PeriodicTask(sim, 0.5, lambda: count.append(1))
        sim.run(until=1.1)
        task.cancel()
        sim.run(until=5.0)
        assert len(count) == 2
        assert not task.active

    def test_cancel_inside_callback(self, sim):
        task_box = {}

        def fire_once():
            task_box["task"].cancel()

        task_box["task"] = PeriodicTask(sim, 0.5, fire_once)
        sim.run(until=5.0)
        assert task_box["task"].fired == 1

    def test_zero_period_rejected(self, sim):
        with pytest.raises(SchedulingError):
            PeriodicTask(sim, 0.0, lambda: None)


class TestFastScheduling:
    def test_schedule_fast_fires_in_order_with_handles(self, sim):
        fired = []
        sim.schedule(0.2, fired.append, "handle")
        sim.schedule_fast(0.1, fired.append, "fast")
        sim.schedule_fast_at(0.3, fired.append, "fast-at")
        sim.run()
        assert fired == ["fast", "handle", "fast-at"]

    def test_schedule_fast_ties_respect_scheduling_order(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule_fast(1.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_schedule_fast_validates_like_schedule(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_fast(-0.1, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_fast(math.nan, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_fast_at(-1.0, lambda: None)

    def test_schedule_fast_counts_as_pending(self, sim):
        sim.schedule_fast(0.5, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_clear_drops_fast_events(self, sim):
        fired = []
        sim.schedule_fast(0.1, fired.append, "x")
        sim.clear()
        sim.run()
        assert fired == []
        assert sim.pending_events == 0


class TestPendingCounter:
    def test_counter_tracks_schedule_execute_cancel(self, sim):
        handles = [sim.schedule(0.1 * (i + 1), lambda: None)
                   for i in range(4)]
        assert sim.pending_events == 4
        handles[0].cancel()
        assert sim.pending_events == 3
        sim.run(until=0.25)  # fires events at 0.2 (0.1 was cancelled)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_firing_does_not_skew_counter(self, sim):
        handle = sim.schedule(0.1, lambda: None)
        sim.run()
        handle.cancel()  # late cancel of an already-fired event
        assert sim.pending_events == 0
        assert not handle.pending

    def test_run_until_boundary_keeps_future_event_pending(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["early", "late"]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def run(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            values = []
            for _ in range(5):
                sim.schedule(rng.random(), lambda: values.append(sim.now))
            sim.run()
            return values

        assert run(7) == run(7)
        assert run(7) != run(8)
