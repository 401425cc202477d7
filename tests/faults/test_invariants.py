"""The strict-mode InvariantChecker: clean runs stay silent, forged
state trips the exact check that guards it."""

import pytest

from repro import scenarios
from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import InvariantViolation
from repro.faults import InvariantChecker, NAV_MAX_LEGAL
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.routing import RouteEntry


def _mac(sim):
    medium = Medium(sim, FixedLoss(50.0))
    radio = Radio("r0", medium, DOT11B, Position(0, 0, 0))
    return medium, DcfMac(sim, radio, allocate_address())


class TestCleanRun:
    def test_busy_bss_run_has_zero_violations(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=3)
        from repro.traffic.generators import CbrSource
        for station in bss.stations:
            CbrSource(sim, lambda p, s=station: s.send(bss.ap.address, p),
                      packet_bytes=400, interval=0.01)
        checker = InvariantChecker(sim, interval=0.01, strict=True)
        checker.watch_medium(bss.medium).install()
        sim.run(until=sim.now + 1.0)
        assert checker.violations == []
        assert checker.checks_run >= 90

    def test_stop_halts_sweeping(self, sim):
        checker = InvariantChecker(sim, interval=0.01).install()
        sim.run(until=0.1)
        ran = checker.checks_run
        assert ran > 0
        checker.stop()
        sim.run(until=0.5)
        assert checker.checks_run == ran


class TestNavCheck:
    def test_forged_nav_raises_in_strict_mode(self, sim):
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=True).watch_mac(mac)
        mac.nav._until = sim.now + NAV_MAX_LEGAL + 0.001
        with pytest.raises(InvariantViolation, match="nav-legal-duration"):
            checker.check_now()

    def test_forged_nav_accumulates_in_lenient_mode(self, sim):
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=False).watch_mac(mac)
        mac.nav._until = sim.now + 1.0
        checker.check_now()
        assert len(checker.violations) == 1
        violation = checker.violations[0]
        assert violation.check == "nav-legal-duration"
        assert violation.subject == str(mac.address)

    def test_maximal_legal_nav_is_fine(self, sim):
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=True).watch_mac(mac)
        mac.nav._until = sim.now + NAV_MAX_LEGAL
        checker.check_now()
        assert checker.violations == []


class TestBackoffLeftFold:
    def _arm(self, sim, mac, slots):
        mac._countdown_anchor = sim.now
        mac._countdown_remaining = slots
        expiry = sim.now
        for _ in range(slots):
            expiry += mac._slot_time
        mac._countdown.schedule_at(expiry)

    def test_correct_batched_expiry_passes(self, sim):
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=True).watch_mac(mac)
        self._arm(sim, mac, 7)
        checker.check_now()
        assert checker.violations == []

    def test_corrupted_anchor_is_caught(self, sim):
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=True).watch_mac(mac)
        self._arm(sim, mac, 7)
        mac._countdown_anchor += 1e-7
        with pytest.raises(InvariantViolation, match="backoff-left-fold"):
            checker.check_now()

    def test_naive_multiply_expiry_is_caught(self, sim):
        """slots * slot_time rounds differently from the left-fold for
        some counts; the checker must hold the exact reference."""
        medium, mac = _mac(sim)
        checker = InvariantChecker(sim, strict=False).watch_mac(mac)
        found = False
        for slots in range(1, 64):
            mac._countdown_anchor = sim.now
            mac._countdown_remaining = slots
            mac._countdown.schedule_at(sim.now + slots * mac._slot_time)
            checker.check_now()
            if checker.violations:
                found = True
                break
        assert found, "no slot count distinguishes multiply from fold"


class TestKernelCheck:
    def test_event_behind_the_clock_is_caught(self, sim):
        sim.run(until=1.0)
        checker = InvariantChecker(sim, strict=True)
        sim._push((0.5, -1, lambda: None, ()))
        with pytest.raises(InvariantViolation, match="heap-monotonic"):
            checker.check_now()


class _FakeProtocol:
    def __init__(self, table):
        self._table = table

    def routes(self):
        return self._table

    def next_hop(self, destination):
        entry = self._table.get(destination)
        return entry.next_hop if entry is not None else None


class _FakeNode:
    def __init__(self, address, table):
        self.address = address
        self.protocol = _FakeProtocol(table)


class TestLoopFree:
    def _two_node_loop(self, updated_at):
        a, b, dest = (allocate_address() for _ in range(3))
        # a and b each claim the other is the way to the (absent) dest.
        node_a = _FakeNode(a, {dest: RouteEntry(dest, b, 2,
                                                updated_at=updated_at)})
        node_b = _FakeNode(b, {dest: RouteEntry(dest, a, 2,
                                                updated_at=updated_at)})
        return [node_a, node_b]

    def test_stale_mutual_loop_is_caught(self, sim):
        sim.run(until=1.0)
        nodes = self._two_node_loop(updated_at=0.0)
        checker = InvariantChecker(sim, strict=True,
                                   route_settle=0.3).watch_mesh(nodes)
        with pytest.raises(InvariantViolation, match="routing-loop-free"):
            checker.check_now()

    def test_converging_tables_get_grace(self, sim):
        sim.run(until=1.0)
        nodes = self._two_node_loop(updated_at=sim.now)
        checker = InvariantChecker(sim, strict=True,
                                   route_settle=0.3).watch_mesh(nodes)
        checker.check_now()
        assert checker.violations == []

    def test_loop_free_chain_passes(self, sim):
        sim.run(until=1.0)
        a, b, c = (allocate_address() for _ in range(3))
        nodes = [
            _FakeNode(a, {c: RouteEntry(c, b, 2, updated_at=0.0)}),
            _FakeNode(b, {c: RouteEntry(c, c, 1, updated_at=0.0)}),
            _FakeNode(c, {}),
        ]
        checker = InvariantChecker(sim, strict=True).watch_mesh(nodes)
        checker.check_now()
        assert checker.violations == []


class TestShardMode:
    def test_shard_prefix_appears_in_violation_subject(self, sim):
        sim.run(until=1.0)
        checker = InvariantChecker(sim, strict=False, shard=3)
        sim._push((0.5, -1, lambda: None, ()))
        checker.check_now()
        (violation,) = checker.violations
        assert violation.subject.startswith("shard3:")

    def test_no_shard_keeps_historical_subjects(self, sim):
        sim.run(until=1.0)
        checker = InvariantChecker(sim, strict=False)
        sim._push((0.5, -1, lambda: None, ()))
        checker.check_now()
        (violation,) = checker.violations
        assert not violation.subject.startswith("shard")


class TestMergeOrder:
    def _record(self, time, shard, seq):
        # Only the (time, shard, seq) merge-key prefix matters here.
        return (time, shard, seq, "sender", 0.0, 0.0, 0.0, 1, 0.1, 1e-4)

    def test_sorted_batch_passes_and_updates_tail(self):
        tail = {}
        batch = [self._record(0.1, 0, 0), self._record(0.1, 1, 0),
                 self._record(0.2, 0, 1)]
        InvariantChecker.check_merge_order(batch, tail)
        assert tail == {0: (0.2, 1), 1: (0.1, 0)}

    def test_unsorted_batch_is_caught(self):
        batch = [self._record(0.2, 0, 0), self._record(0.1, 1, 0)]
        with pytest.raises(InvariantViolation, match="merge"):
            InvariantChecker.check_merge_order(batch, {})

    def test_per_shard_seq_regression_across_rounds_is_caught(self):
        tail = {}
        InvariantChecker.check_merge_order([self._record(0.1, 0, 5)], tail)
        with pytest.raises(InvariantViolation, match="merge"):
            InvariantChecker.check_merge_order([self._record(0.2, 0, 5)],
                                               tail)

    def test_monotone_rounds_pass(self):
        tail = {}
        InvariantChecker.check_merge_order([self._record(0.1, 0, 0)], tail)
        InvariantChecker.check_merge_order([self._record(0.1, 0, 1),
                                            self._record(0.3, 1, 0)], tail)
        assert tail == {0: (0.1, 1), 1: (0.3, 0)}


class TestCounterParity:
    """scheduled - executed - cancelled must equal the live-heap census
    at quiescence, under either kernel implementation."""

    def _mixed_workload(self, sim):
        from repro.core.engine import Timer
        timer = Timer(sim, lambda: None)
        hits = []
        for i in range(10):
            sim.schedule_fast(0.01 * i, hits.append, i)
        handles = [sim.schedule(0.005 + 0.01 * i, hits.append, 100 + i)
                   for i in range(10)]
        handles[3].cancel()
        handles[7].cancel()
        timer.schedule(0.02)
        timer.schedule(0.045)   # supersede: stale entry stays in heap
        timer.cancel()
        timer.schedule(0.06)    # re-arm after cancel
        # Leave work beyond the horizon so the heap is non-empty at
        # quiescence: pending entries must be counted, not just zero.
        sim.schedule_fast(10.0, hits.append, -1)
        sim.schedule(11.0, hits.append, -2)
        return timer, hits

    def test_clean_mixed_run_passes(self, sim):
        timer, hits = self._mixed_workload(sim)
        checker = InvariantChecker(sim, strict=True)
        checker.check_counter_parity()   # before the run
        sim.run(until=1.0)
        checker.check_counter_parity()   # at quiescence, heap non-empty
        assert checker.violations == []
        assert sim.pending_events == 2
        assert len(hits) == 10 + 8   # fast + uncancelled handles
        assert not timer.armed       # fired within the horizon

    def test_forged_scheduled_drift_is_caught(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run(until=1.0)
        checker = InvariantChecker(sim, strict=True)
        sim._scheduled += 1   # a kernel that lost an event looks like this
        with pytest.raises(InvariantViolation, match="counter-parity"):
            checker.check_counter_parity()

    def test_forged_executed_drift_accumulates_in_lenient_mode(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run(until=1.0)
        checker = InvariantChecker(sim, strict=False)
        sim._events_executed -= 1
        checker.check_counter_parity()
        (violation,) = checker.violations
        assert violation.check == "counter-parity"
        assert "live heap entries" in violation.detail

    def test_superseded_timer_trash_is_not_live(self, sim):
        from repro.core.engine import Timer
        timer = Timer(sim, lambda: None)
        for _ in range(5):
            timer.schedule(2.0)   # four stale versions ride in the heap
        checker = InvariantChecker(sim, strict=True)
        checker.check_counter_parity()
        assert sim.pending_events == 1
        assert len(sim._heap) == 5

    def test_clear_rebaseline_stays_in_parity(self, sim):
        self._mixed_workload(sim)
        sim.run(until=0.03)
        sim.clear()
        InvariantChecker(sim, strict=True).check_counter_parity()
        assert sim.pending_events == 0


@pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")
class TestCompiledSlotsUnderTheChecker:
    """The checker's two independent oracles — the live-heap census and
    the per-slot left fold — against the compiled carrier-sense slots,
    which write the counters and the countdown deadline they audit."""

    def _saturated_cell(self, stations=6):
        sim = Simulator(seed=9, kernel="c")
        medium = Medium(sim, FixedLoss(50.0))
        macs = []
        for index in range(stations):
            radio = Radio(f"r{index}", medium, DOT11B,
                          Position(float(index), 0, 0))
            macs.append(DcfMac(sim, radio, allocate_address()))
        for index, mac in enumerate(macs):
            for _ in range(40):
                mac.send(macs[(index + 1) % stations].address, bytes(200))
        return sim, medium, macs

    def test_a_saturated_cell_on_compiled_slots_stays_silent(self):
        sim, medium, macs = self._saturated_cell()
        ext = sim._ext
        assert all(mac._ifs._callback.__func__ is ext._ifs_expired
                   and mac.radio.on_cca_busy.__func__
                   is ext._cancel_access_timers for mac in macs)
        checker = InvariantChecker(sim, interval=2.5e-4, strict=True)
        checker.watch_medium(medium).install()
        folds = []
        audit = checker._check_mac

        def counting(mac):
            if mac._countdown._armed and mac._countdown_remaining > 0:
                folds.append(mac._countdown_remaining)
            audit(mac)
        checker._check_mac = counting
        for _ in range(20):
            sim.run(until=sim.now + 0.025)
            checker.check_counter_parity()     # between runs only
        assert checker.violations == []
        assert len(folds) > 300 and max(folds) > 31   # grown windows too
        assert sum(mac.counters.get("msdu_delivered") for mac in macs) > 50
        assert sim._cancelled_events > 1000    # freezes and re-anchors

    def test_a_deadline_off_the_fold_is_still_caught(self):
        sim, medium, macs = self._saturated_cell(stations=2)
        checker = InvariantChecker(sim, strict=True).watch_medium(medium)
        waiting = None
        while waiting is None:
            sim.run(max_events=1)
            waiting = next((mac for mac in macs if mac._countdown._armed
                            and mac._countdown_remaining > 2), None)
        checker.check_now()                    # the compiled fold passes
        waiting._countdown._time = waiting._countdown_anchor \
            + waiting._countdown_remaining * waiting._slot_time + 1e-9
        with pytest.raises(InvariantViolation, match="backoff-left-fold"):
            checker.check_now()
