"""Tests for the sharded executor machinery (build context, boundary
medium, arrival log, coordinator protocol)."""

import json
import math
import multiprocessing
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator, ckernel_available
from repro.core.errors import (ConfigurationError, InvariantViolation,
                               SimulationError)
from repro.core.topology import Position
from repro.core.trace import TraceLog
from repro.core.units import SPEED_OF_LIGHT
from repro.mac.addresses import MacAddress
from repro.parallel import (ArrivalLog, BoundaryRecord, CellSpec,
                            ShardMedium, partition_cells, run_sharded,
                            run_single)
from repro.parallel import executor
from repro.parallel.channel import Channel
from repro.parallel.executor import CellBuild
from repro.parallel.shard import _GhostSender
from repro.phy.channel import ENERGY_ONLY, Transmission
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.telemetry.metrics import MetricsRegistry


def free_space():
    return LogDistance(2.4e9, exponent=2.0)


def _noop_build(ctx):
    return lambda: {}


def spec(name, channel=1, x=0.0, build=_noop_build):
    return CellSpec(name, channel, Position(x, 0.0, 0.0), 10.0, build)


class TestCellBuild:
    def _ctx(self, name="alpha", index=2):
        sim = Simulator(seed=3)
        return CellBuild(sim, None, spec(name), index)

    def test_addresses_are_deterministic_per_cell_index(self):
        first = self._ctx()
        assert first.address() == MacAddress(0x02_00_00_00_00_00 | (3 << 16))
        assert first.address() \
            == MacAddress(0x02_00_00_00_00_00 | (3 << 16) | 1)
        again = self._ctx()
        assert again.address().value == 0x02_00_00_00_00_00 | (3 << 16)

    def test_addresses_are_locally_administered_and_unicast(self):
        address = self._ctx().address()
        assert address.is_locally_administered
        assert not address.is_multicast

    def test_different_cells_never_collide(self):
        a = {self._ctx(index=0).address().value for _ in range(1)}
        b = {self._ctx(index=1).address().value for _ in range(1)}
        assert not a & b

    def test_rng_is_cell_namespaced(self):
        ctx = self._ctx(name="alpha")
        expected = Simulator(seed=3).rng.stream("cell/alpha/s").random()
        assert ctx.rng.stream("s").random() == expected


class TestShardMedium:
    def _medium(self, shard=0, export=frozenset({1})):
        sim = Simulator(seed=1, trace=TraceLog(enabled=False))
        medium = ShardMedium(sim, free_space(), shard=shard,
                             export_channels=export)
        return sim, medium

    def test_exported_channel_transmissions_fill_outbox(self):
        sim, medium = self._medium()
        radio = Radio("tx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        medium.transmit_energy(radio, duration=1e-4, power_watts=0.1)
        (record,) = medium.drain_outbox()
        assert record.shard == 0 and record.seq == 0
        assert record.sender == "tx" and record.channel == 1
        assert record.power_watts == 0.1 and record.duration == 1e-4
        assert medium.outbox == []  # drained

    def test_non_exported_channel_is_not_recorded(self):
        sim, medium = self._medium(export=frozenset({6}))
        radio = Radio("tx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        medium.transmit_energy(radio, duration=1e-4, power_watts=0.1)
        assert medium.drain_outbox() == []

    def test_export_seq_increments_per_shard(self):
        sim, medium = self._medium()
        radio = Radio("tx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        medium.transmit_energy(radio, duration=1e-5, power_watts=0.1)
        medium.transmit_energy(radio, duration=1e-5, power_watts=0.1)
        first, second = medium.drain_outbox()
        assert (first.seq, second.seq) == (0, 1)

    def test_inject_boundary_delivers_energy_to_local_radios(self):
        sim, medium = self._medium()
        rx = Radio("rx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        record = BoundaryRecord(0.0, 1, 0, "remote", 30.0, 0.0, 0.0,
                                1, 0.5, 2e-4)
        medium.inject_boundary(record)
        assert medium.boundary_injected == 1
        # Two raw heap entries (begins/ends) for the one audible radio.
        assert sim.pending_events == 2
        sim.run(until=1e-4)
        # Mid-burst the ghost's energy drives the receiver's CCA.
        assert rx.total_incident_power_watts() > 0.0
        sim.run(until=1.0)
        assert rx.total_incident_power_watts() == 0.0

    def test_injected_ghost_is_energy_only(self):
        sim, medium = self._medium()
        rx = Radio("rx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        record = BoundaryRecord(0.0, 1, 0, "remote", 5.0, 0.0, 0.0,
                                1, 0.5, 2e-4)
        transmission = medium.inject_boundary(record)
        assert transmission.mode is ENERGY_ONLY
        # A strong arrival (5 m away) that a real frame would lock; the
        # ghost never locks because no standard decodes ENERGY_ONLY.
        sim.run(until=1.0)
        assert rx.state.name != "RX"
        assert rx.total_incident_power_watts() == 0.0

    def test_inject_below_floor_schedules_nothing(self):
        sim, medium = self._medium()
        Radio("rx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        record = BoundaryRecord(0.0, 1, 0, "remote", 5e5, 0.0, 0.0,
                                1, 0.5, 2e-4)
        medium.inject_boundary(record)
        assert sim.pending_events == 0

    def test_past_arrival_raises_lookahead_violation(self):
        sim, medium = self._medium()
        Radio("rx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        record = BoundaryRecord(0.5, 1, 0, "remote", 30.0, 0.0, 0.0,
                                1, 0.5, 2e-4)
        with pytest.raises(InvariantViolation, match="lookahead"):
            medium.inject_boundary(record)


KERNELS = [pytest.param("python"), pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(), reason="compiled kernel not built"))]


def _per_receiver_inject(medium, record):
    """What ``ShardMedium.inject_boundary`` did before ghosts had plans —
    a fresh link budget per receiver per record, a lookahead check per
    arrival, a Python ``push`` per edge.  The oracle of the plan path."""
    sim = medium.sim
    now = sim._now
    start = record.start_time
    tx_pos = Position(record.x, record.y, record.z)
    transmission = Transmission(
        _GhostSender(record.sender, tx_pos, record.channel), None, 0,
        ENERGY_ONLY, record.power_watts, start, record.duration)
    for receiver, begins, ends in medium._channel_members(record.channel):
        rx_pos = receiver.position
        rx_power = medium.propagation.received_power_watts(
            record.power_watts, tx_pos, rx_pos)
        if rx_power < medium.reception_floor_watts:
            continue
        delay = tx_pos.distance_to(rx_pos) / SPEED_OF_LIGHT \
            if medium.propagation_delay else 0.0
        if start + delay < now:
            raise InvariantViolation("lookahead violation")
        sim._push((start + delay, sim._next_seq(), None, begins,
                   (transmission, rx_power)))
        sim._push((start + (delay + record.duration), sim._next_seq(), None,
                   ends, (transmission,)))
        sim._scheduled += 2
    return transmission


def _entry(entry):
    """A raw fan-out heap entry, with its objects named."""
    time, seq, _none, callback, args = entry
    sent = args[0]
    return (repr(time), seq, callback.__self__.name, callback.__name__,
            tuple(map(repr, args[1:])), sent.sender.name, sent.mode.name,
            repr(sent.power_watts), repr(sent.start_time),
            repr(sent.duration))


#: Remote sender spots: near, mid, and one 50 km out that only the
#: 1 W records clear the floor from.
_REMOTE_SPOTS = [(0.0, 0.0), (25.5, 3.0), (-40.0, 10.0), (5e4, 0.0)]
_LOCAL_SPOTS = [(0.0, 1.0), (10.0, 0.0), (50.0, 5.0), (-3e4, 0.0)]
_CHANNELS = st.sampled_from([1, 6])
_SLOT = st.integers(0, 7)


@st.composite
def _ghost_scripts(draw):
    """Boundary records whose remote senders move, change power, switch
    channel or share a name, interleaved with local radios attaching,
    moving and retuning."""
    inject = st.tuples(
        st.just("inject"), st.sampled_from(["r0", "r1"]),
        st.sampled_from(_REMOTE_SPOTS), _CHANNELS,
        st.sampled_from([0.05, 0.1, 1.0]), st.sampled_from([1e-4, 2.5e-4]),
        st.sampled_from([0.0, 1e-3, 2.7e-3]))
    local = st.one_of(
        st.tuples(st.just("attach"), st.sampled_from(_LOCAL_SPOTS), _CHANNELS),
        st.tuples(st.just("move"), _SLOT, st.sampled_from(_LOCAL_SPOTS)),
        st.tuples(st.just("retune"), _SLOT, _CHANNELS))
    return draw(st.lists(st.one_of(inject, inject, local), min_size=1,
                         max_size=30))


class TestGhostPlans:
    """A boundary ghost fans out through its compiled plan and the
    kernel's ``fan_out``: every entry it pushes — time, seq, callback,
    receive power — equals what the per-receiver loop pushed."""

    @staticmethod
    def _world(kernel):
        sim = Simulator(seed=1, trace=TraceLog(enabled=False), kernel=kernel)
        medium = ShardMedium(sim, free_space(), shard=1)
        Radio("rx0", medium, DOT11B, Position(5.0, 0.0, 0.0), channel_id=1)
        return sim, medium

    @staticmethod
    def _apply(medium, op, serial):
        radios = medium._radios
        if op[0] == "attach":
            (x, y), channel = op[1], op[2]
            Radio(f"rx{serial}", medium, DOT11B, Position(x, y, 0.0),
                  channel_id=channel)
        elif radios:
            radio = radios[op[1] % len(radios)]
            if op[0] == "move":
                radio.position = Position(op[2][0], op[2][1], 0.0)
            else:
                radio.channel_id = op[2]

    @pytest.mark.parametrize("kernel", KERNELS)
    @settings(max_examples=60, deadline=None)
    @given(script=_ghost_scripts())
    def test_plan_path_pushes_what_the_loop_pushed(self, kernel, script):
        planned, reference = self._world(kernel), self._world(kernel)
        for serial, op in enumerate(script):
            if op[0] != "inject":
                self._apply(planned[1], op, serial)
                self._apply(reference[1], op, serial)
                continue
            _, name, (x, y), channel, power, duration, start = op
            record = BoundaryRecord(start, 0, serial, name, x, y, 0.0,
                                    channel, power, duration)
            pushed = []
            for (sim, medium), inject in (
                    (planned, ShardMedium.inject_boundary),
                    (reference, _per_receiver_inject)):
                before = {entry[1] for entry in sim._heap}
                inject(medium, record)
                pushed.append(sorted(_entry(entry) for entry in sim._heap
                                     if entry[1] not in before))
            assert pushed[0] == pushed[1]
        assert planned[0]._scheduled == reference[0]._scheduled
        assert planned[1].boundary_injected \
            == sum(op[0] == "inject" for op in script)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_an_arrival_at_the_clock_passes_one_ulp_earlier_raises(
            self, kernel):
        start = 1e-3
        near, far = Position(30.0, 0.0, 0.0), Position(90.0, 0.0, 0.0)
        earliest = start + Position(0.0, 0.0, 0.0).distance_to(near) \
            / SPEED_OF_LIGHT
        record = BoundaryRecord(start, 0, 0, "remote", 0.0, 0.0, 0.0,
                                1, 0.1, 1e-4)
        for clock, fails in ((earliest, False),
                             (math.nextafter(earliest, math.inf), True)):
            sim = Simulator(seed=1, trace=TraceLog(enabled=False),
                            kernel=kernel)
            medium = ShardMedium(sim, free_space(), shard=1)
            # The far radio's arrival is after both clocks: only the
            # earliest arrival may decide.
            Radio("far", medium, DOT11B, far, channel_id=1)
            Radio("near", medium, DOT11B, near, channel_id=1)
            sim.schedule_fast_at(clock, lambda: None)
            sim.run(until=clock)
            assert sim.now == clock
            if fails:
                with pytest.raises(InvariantViolation,
                                   match=rf"at t={earliest!r} is behind "
                                         rf"the local clock t={clock!r}"):
                    medium.inject_boundary(record)
                assert sim.pending_events == 0
            else:
                medium.inject_boundary(record)
                assert sim.pending_events == 4


def _steady_build(ctx):
    """A sender of constant-power bursts every 1.3 us, and a listener."""
    sim, cell, medium = ctx.sim, ctx.cell, ctx.medium
    radio = Radio(f"tx-{cell.name}", medium, DOT11B, cell.center,
                  channel_id=cell.channel)
    Radio(f"rx-{cell.name}", medium, DOT11B, cell.center.translated(dx=5.0),
          channel_id=cell.channel)

    def burst():
        medium.transmit_energy(radio, duration=7e-7, power_watts=0.1)
        sim.schedule(1.3e-6, burst)

    sim.schedule(0.0, burst)
    return lambda: {}


class TestBoundaryCosts:
    """What the boundary path costs, counted on an in-process coupled
    run (the shards advanced by direct call, as a one-host worker does):
    ghost link budgets are paid once per ghost, not once per record;
    ghost edges are pushed by the kernel's ``fan_out``, never by a
    Python ``push``; a record is built once, where it is exported."""

    CELLS = [spec("a", x=0.0, build=_steady_build),
             spec("b", x=100.0, build=_steady_build)]

    def _run(self, horizon):
        plan = partition_cells(self.CELLS, free_space(), workers=2,
                               manual={"a": 0, "b": 1})
        counts = {"link_budgets": 0, "pushes": 0, "fan_outs": 0,
                  "injections": 0, "records": 0}
        built = BoundaryRecord.__new__

        def counted_record(cls, *fields):
            counts["records"] += 1
            return built(cls, *fields)

        shards = []
        for index, cells in enumerate(plan.shards):
            shard = executor._Shard(index, seed=4)
            shard.build(cells, [plan.index_of(cell.name) for cell in cells],
                        plan.export_channels[index], free_space, -110.0,
                        True, False, False, 0.05)
            self._count_injection(shard, counts)
            shards.append(shard)
        board = executor._Board(len(shards))
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(BoundaryRecord, "__new__", counted_record)
                rounds, records, _ = executor._run_rounds(
                    plan, [plan.incoming(index) for index in range(2)],
                    horizon, MetricsRegistry(enabled=False), board,
                    lambda requests: [shards[index].advance(bound, batch)
                                      for index, bound, batch in requests],
                    ArrivalLog())
        finally:
            board.close()
        return rounds, records, counts

    @staticmethod
    def _count_injection(shard, counts):
        """Count, while a record is injected, the link budgets evaluated,
        the ``fan_out`` calls and the pushes made outside them."""
        sim, medium = shard.sim, shard.medium
        inside = {"inject": False, "fan_out": False}
        inject, fan_out, push = medium.inject_boundary, sim._fan_out, sim._push
        evaluate = medium.propagation.received_power_watts

        def counted_inject(record):
            counts["injections"] += 1
            inside["inject"] = True
            try:
                return inject(record)
            finally:
                inside["inject"] = False

        def counted_fan_out(*args):
            counts["fan_outs"] += inside["inject"]
            inside["fan_out"] = True
            try:
                return fan_out(*args)
            finally:
                inside["fan_out"] = False

        def counted_push(entry):
            counts["pushes"] += inside["inject"] and not inside["fan_out"]
            return push(entry)

        def counted_evaluate(*args):
            counts["link_budgets"] += inside["inject"]
            return evaluate(*args)

        medium.inject_boundary = counted_inject
        sim._fan_out, sim._push = counted_fan_out, counted_push
        medium.propagation.received_power_watts = counted_evaluate

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ghost_costs_do_not_grow_with_the_horizon(self, kernel,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        short, long = self._run(2e-5), self._run(6e-5)
        assert long[0] > 2 * short[0] and long[1] > 2 * short[1]
        for rounds, records, counts in (short, long):
            # Each record reaches the other shard's two radios; each
            # shard compiled its one ghost's plan once.
            assert counts["link_budgets"] == 2 * 2
            assert counts["pushes"] == 0
            assert counts["fan_outs"] == counts["injections"] > 0
            assert counts["records"] == records


class TestArrivalLog:
    def test_log_is_canonical_jsonl(self):
        log = ArrivalLog({"seed": 1})
        log.arrival(BoundaryRecord(0.125, 0, 0, "s", 0.0, 0.0, 0.0,
                                   1, 0.1, 1e-4), dests=[1])
        log.fence(1, 0, 0.25, 10)
        log.final(0, 0.25, 10)
        text = log.to_jsonl()
        lines = text.strip().split("\n")
        assert [json.loads(line)["type"] for line in lines] \
            == ["header", "arrival", "fence", "final"]
        # Floats ride as repr strings: byte-stable across platforms.
        assert json.loads(lines[1])["time"] == "0.125"
        assert len(log.sha1()) == 40

    def test_identical_content_hashes_identically(self):
        def build():
            log = ArrivalLog({"seed": 9})
            log.fence(1, 0, 0.5, 42)
            return log
        assert build().sha1() == build().sha1()

    #: Floats whose repr is unusual (non-finite, subnormal, signed
    #: zero, exponent form) and names json must escape.
    FLOATS = [float("inf"), float("-inf"), 5e-324, -0.0, 1e22, 1e-7,
              0.1 + 0.2, 123456789.125]
    SENDERS = ["ap", 'quo"te', "back\\slash", "ctl\x01\n\ttab",
               "caf\u00e9 \u96fb\u6ce2 \U0001f4e1", ""]

    @staticmethod
    def _canonical(record):
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("dests", [[], [3], [0, 1, 7]])
    def test_arrival_lines_equal_canonical_json(self, dests):
        log = ArrivalLog({})
        expected = []
        for index, sender in enumerate(self.SENDERS):
            start, power, duration = (
                self.FLOATS[(index + k) % len(self.FLOATS)] for k in range(3))
            record = (start, index, 10 ** index, sender, 1.5, -2.5, 0.0,
                      index + 1, power, duration)
            log.arrival(record, dests)
            log.arrival(BoundaryRecord(*record), tuple(dests))
            expected += [self._canonical({
                "type": "arrival", "time": repr(start), "shard": index,
                "seq": 10 ** index, "sender": sender, "channel": index + 1,
                "power_watts": repr(power), "duration": repr(duration),
                "dests": dests})] * 2
        assert log.to_jsonl().split("\n")[1:-1] == expected

    def test_fence_and_final_lines_equal_canonical_json(self):
        log = ArrivalLog({})
        expected = []
        for index, clock in enumerate(self.FLOATS):
            log.fence(index, index + 1, clock, 10 ** index)
            log.final(index, clock, 10 ** index)
            expected += [
                self._canonical({"type": "fence", "round": index,
                                 "shard": index + 1, "clock": repr(clock),
                                 "events": 10 ** index}),
                self._canonical({"type": "final", "shard": index,
                                 "clock": repr(clock),
                                 "events": 10 ** index})]
        assert log.to_jsonl().split("\n")[1:-1] == expected


def _counting_build(ctx):
    """A tiny deterministic DES cell: periodic self-traffic."""
    sim = ctx.sim
    draws = []

    def tick(remaining):
        draws.append(ctx.rng.stream("tick").random())
        if remaining > 0:
            sim.schedule(0.01, tick, remaining - 1)

    sim.schedule(0.0, tick, 5)
    return lambda: {"draws": draws, "address": str(ctx.address())}


def _bursting_build(ctx):
    """A cell that radiates: seven energy bursts, each one a boundary
    record when a co-channel cell sits on another shard."""
    sim, cell = ctx.sim, ctx.cell
    radio = Radio(f'tx"{cell.name}\\\u00e9', ctx.medium, DOT11B, cell.center,
                  channel_id=cell.channel)
    sent = []

    def burst(remaining):
        power = 0.05 + 0.05 * ctx.rng.stream("burst").random()
        ctx.medium.transmit_energy(radio, duration=7e-7, power_watts=power)
        sent.append(power)
        if remaining > 0:
            sim.schedule(1.3e-6, burst, remaining - 1)

    sim.schedule(0.0, burst, 6)
    return lambda: {"sent": sent}


class TestExecutors:
    def test_single_and_sharded_match_when_decoupled(self):
        cells = [CellSpec(f"c{i}", 1, Position(i * 1e6, 0.0, 0.0), 10.0,
                          _counting_build) for i in range(4)]
        single = run_single(cells, seed=11, horizon=0.1,
                            propagation_factory=free_space)
        sharded = run_sharded(cells, seed=11, horizon=0.1, workers=2,
                              propagation_factory=free_space)
        assert single["cells"] == sharded["cells"]
        assert single["events"] == sharded["events"]
        assert sharded["shards"] == 2
        assert sharded["rounds"] == 1
        assert sharded["boundary_records"] == 0

    def test_sharded_runs_are_byte_identical(self):
        cells = [CellSpec(f"c{i}", 1, Position(i * 1e6, 0.0, 0.0), 10.0,
                          _counting_build) for i in range(3)]
        first = run_sharded(cells, seed=5, horizon=0.05, workers=3,
                            propagation_factory=free_space)
        second = run_sharded(cells, seed=5, horizon=0.05, workers=3,
                             propagation_factory=free_space)
        assert first["arrival_log"] == second["arrival_log"]
        assert first["arrival_log_sha1"] == second["arrival_log_sha1"]
        assert first["cells"] == second["cells"]

    def test_coupled_without_propagation_delay_rejected(self):
        cells = [spec("a", x=0.0), spec("b", x=100.0)]
        with pytest.raises(ConfigurationError, match="propagation_delay"):
            run_sharded(cells, seed=1, horizon=0.01, workers=2,
                        propagation_factory=free_space,
                        propagation_delay=False,
                        manual={"a": 0, "b": 1})

    def test_coupled_pair_synchronizes_in_lookahead_rounds(self):
        cells = [spec("a", x=0.0, build=_counting_build),
                 spec("b", x=100.0, build=_counting_build)]
        result = run_sharded(cells, seed=2, horizon=1e-5, workers=2,
                             propagation_factory=free_space,
                             manual={"a": 0, "b": 1})
        # lookahead = 80 m / c ~ 267 ns; horizon 10 us => ~38 rounds.
        assert result["rounds"] > 10

    def test_coupled_pair_log_is_pinned(self):
        # Recorded on the commit before ArrivalLog formatted its own
        # lines and the coordinator kept records as plain tuples: the
        # log must not move by a byte.
        cells = [spec("a", x=0.0, build=_bursting_build),
                 spec("b", x=100.0, build=_bursting_build)]
        result = run_sharded(cells, seed=2, horizon=1e-5, workers=2,
                             propagation_factory=free_space,
                             manual={"a": 0, "b": 1},
                             check_invariants=True)
        assert result["rounds"] == 38
        assert result["boundary_records"] == 14
        assert result["events"] == 42
        assert result["arrival_log_sha1"] \
            == "7106bd92017064432cf537a1f699e4fa014f6079"

    def test_worker_exception_surfaces_with_shard_id(self):
        def broken(ctx):
            raise RuntimeError("boom in builder")
        cells = [spec("a", build=broken)]
        with pytest.raises(SimulationError, match="shard 0.*boom"):
            run_sharded(cells, seed=1, horizon=0.01, workers=1,
                        propagation_factory=free_space)

    def test_check_invariants_runs_sharded(self):
        cells = [CellSpec(f"c{i}", 1, Position(i * 1e6, 0.0, 0.0), 10.0,
                          _counting_build) for i in range(2)]
        result = run_sharded(cells, seed=3, horizon=0.1, workers=2,
                             propagation_factory=free_space,
                             check_invariants=True)
        assert result["shards"] == 2


def _misbehaving(action):
    """A bursting cell whose extra callback misbehaves at 2.8 us."""
    def build(ctx):
        collect = _bursting_build(ctx)
        ctx.sim.schedule(2.8e-6, action)
        return collect
    return build


def _exit_abruptly():
    os._exit(3)


def _spin_forever():
    while True:
        time.sleep(0.01)


def _raise_in_callback():
    raise ValueError("bad callback")


class TestWorkerFailures:
    """A crashed, hung or raising shard ends the run with a named
    error in bounded time and leaves no child process behind."""

    #: What the CPU probe answers: here a CPU per shard, whatever the
    #: box running the tests offers.
    USABLE_CPUS = 2

    @pytest.fixture(autouse=True)
    def _placement(self, monkeypatch):
        monkeypatch.setattr(executor, "_usable_cpus",
                            lambda: self.USABLE_CPUS)

    def _run_coupled(self, action):
        cells = [spec("a", x=0.0, build=_bursting_build),
                 spec("b", x=100.0, build=_misbehaving(action))]
        started = time.monotonic()
        with pytest.raises(SimulationError) as caught:
            run_sharded(cells, seed=2, horizon=1e-5, workers=2,
                        propagation_factory=free_space,
                        manual={"a": 0, "b": 1})
        assert multiprocessing.active_children() == []
        return str(caught.value), time.monotonic() - started

    def test_worker_that_exits_mid_run_is_named(self):
        message, elapsed = self._run_coupled(_exit_abruptly)
        assert elapsed < 2.0
        assert "shard 1 died" in message and "exit code 3" in message
        # 2.8e-6 falls in round 11 (lookahead 80 m / c), whose advance
        # carried the other cell's 2.6e-6 burst.
        assert "round 11, last fence (clock=2.6685127615852163e-06, " \
            "events=7), 1 boundary records pending" in message

    def test_hung_worker_times_out(self, monkeypatch):
        monkeypatch.setattr(executor, "RECV_DEADLINE_S", 1.0)
        message, elapsed = self._run_coupled(_spin_forever)
        assert 1.0 <= elapsed < 5.0
        assert "shard 1 timed out: no message for 1 s" in message
        assert "round 11, last fence (clock=" in message

    def test_raising_callback_carries_its_traceback(self):
        message, elapsed = self._run_coupled(_raise_in_callback)
        assert elapsed < 2.0
        assert message.startswith(
            "shard 1 failed: ValueError: bad callback (round 11, ")
        assert "boundary records pending; worker clock=2.8e-06, " in message
        assert "Traceback (most recent call last)" in message
        assert "in _raise_in_callback" in message


class TestPackedWorkerFailures(TestWorkerFailures):
    """The same failures with both shards in ONE worker process: a
    raise still names the shard whose ``sim.run`` raised (the inherited
    test passes as it stands); a death or a silence names every shard
    the process hosted, each with its own context."""

    USABLE_CPUS = 1

    # Shard 0 had fenced round 11 inside the process before shard 1
    # misbehaved, but that fence never left it: to the coordinator both
    # stand at round 10's fence with round 11's records in flight.
    BOTH = ("shard 0: round 11, last fence (clock=2.6685127615852163e-06, "
            "events=7), 1 boundary records pending; "
            "shard 1: round 11, last fence (clock=2.6685127615852163e-06, "
            "events=7), 1 boundary records pending")

    def test_worker_that_exits_mid_run_is_named(self):
        message, elapsed = self._run_coupled(_exit_abruptly)
        assert elapsed < 2.0
        assert message == ("shards 0, 1 died without reporting an error "
                           f"(exit code 3; {self.BOTH})")

    def test_hung_worker_times_out(self, monkeypatch):
        monkeypatch.setattr(executor, "RECV_DEADLINE_S", 1.0)
        message, elapsed = self._run_coupled(_spin_forever)
        assert 1.0 <= elapsed < 5.0
        assert message == ("shards 0, 1 timed out: no message for 1 s "
                           f"({self.BOTH})")

    def test_raising_builder_names_its_shard(self):
        def broken(ctx):
            raise RuntimeError("boom in builder")
        cells = [spec("a", x=0.0), spec("b", x=100.0, build=broken)]
        with pytest.raises(SimulationError, match="shard 1 failed.*boom"):
            run_sharded(cells, seed=1, horizon=1e-5, workers=2,
                        propagation_factory=free_space,
                        manual={"a": 0, "b": 1})
        assert multiprocessing.active_children() == []


def _pid_build(ctx):
    return lambda: {"pid": os.getpid()}


class TestPlacement:
    """Shards are logical; ``min(shards, usable CPUs)`` processes host
    them, and no result can tell how many that was."""

    #: name -> (cells, manual): the coupled pair; a chain whose far end
    #: has a 6 us lookahead and so reaches the horizon rounds before
    #: the two near cells (``done`` with co-hosted shards); a decoupled
    #: plan (one round).
    PLANS = {
        "coupled_pair": (
            [spec("a", x=0.0, build=_bursting_build),
             spec("b", x=100.0, build=_bursting_build)],
            {"a": 0, "b": 1}),
        "chain_with_early_finisher": (
            [spec("a", x=0.0, build=_bursting_build),
             spec("b", x=100.0, build=_bursting_build),
             spec("c", x=2000.0, build=_bursting_build)],
            {"a": 0, "b": 1, "c": 2}),
        "decoupled": (
            [spec(f"c{i}", x=i * 1e6, build=_counting_build)
             for i in range(3)], None),
    }
    COMPARED = ("cells", "events", "shards", "rounds", "boundary_records",
                "arrival_log", "arrival_log_sha1", "telemetry_jsonl")

    @staticmethod
    def _run(name, cpus, monkeypatch, **options):
        cells, manual = TestPlacement.PLANS[name]
        monkeypatch.setattr(executor, "_usable_cpus", lambda: cpus)
        return run_sharded(cells, seed=2, horizon=1e-5, workers=len(cells),
                           propagation_factory=free_space, manual=manual,
                           **options)

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_results_do_not_depend_on_placement(self, name, telemetry,
                                                monkeypatch):
        shard_count = len(self.PLANS[name][0])
        runs = [self._run(name, cpus, monkeypatch, telemetry=telemetry,
                          telemetry_interval=2e-6, check_invariants=True)
                for cpus in (shard_count, 2, 1)]
        reference = runs[0]
        assert reference["shards"] == shard_count
        assert (reference["rounds"] == 1) == (name == "decoupled")
        assert (reference["boundary_records"] > 0) == (name != "decoupled")
        for run in runs[1:]:
            for key in self.COMPARED:
                assert run.get(key) == reference.get(key), key

    def test_chain_far_end_is_done_early(self, monkeypatch):
        log = self._run("chain_with_early_finisher", 1,
                        monkeypatch)["arrival_log"]
        lines = [json.loads(line) for line in log.splitlines()]
        last_fence = {line["shard"]: position
                      for position, line in enumerate(lines)
                      if line["type"] == "fence"}
        assert lines[last_fence[2]]["round"] \
            < lines[last_fence[0]]["round"] == lines[last_fence[1]]["round"]
        # It heard the near cells while it ran, and is no destination
        # once it is done.
        heard = [position for position, line in enumerate(lines)
                 if line["type"] == "arrival" and 2 in line["dests"]]
        assert heard and max(heard) < last_fence[2]
        assert any(line["type"] == "arrival"
                   for line in lines[last_fence[2]:])

    @pytest.mark.parametrize("cpus, processes", [(1, 1), (2, 2), (3, 3),
                                                 (64, 3)])
    def test_process_count_is_min_of_shards_and_cpus(self, cpus, processes,
                                                     monkeypatch):
        cells = [spec(f"c{i}", x=i * 1e6, build=_pid_build)
                 for i in range(3)]
        monkeypatch.setattr(executor, "_usable_cpus", lambda: cpus)
        result = run_sharded(cells, seed=1, horizon=1e-6, workers=3,
                             propagation_factory=free_space)
        pids = {stats["pid"] for stats in result["cells"].values()}
        assert len(pids) == processes and os.getpid() not in pids

    def test_hosting_is_weight_balanced_and_ordered(self, monkeypatch):
        def hosted(weights, cpus):
            cells = [CellSpec(f"c{i}", 1, Position(i * 1e6, 0.0, 0.0), 10.0,
                              _noop_build, weight=weight)
                     for i, weight in enumerate(weights)]
            plan = partition_cells(
                cells, free_space(), workers=len(cells),
                manual={cell.name: i for i, cell in enumerate(cells)})
            monkeypatch.setattr(executor, "_usable_cpus", lambda: cpus)
            return executor._place(plan)

        assert hosted([1, 1, 1], 1) == [[0, 1, 2]]
        assert hosted([1, 1, 1], 2) == [[0, 2], [1]]
        assert hosted([1, 1, 1], 3) == hosted([1, 1, 1], 8) \
            == [[0], [1], [2]]
        # The heavy shard gets a process to itself; a CPU per shard is
        # the identity whatever the weights.
        assert hosted([1, 1, 5], 2) == [[0, 1], [2]]
        assert hosted([1, 9, 5], 3) == [[0], [1], [2]]
        # Weightless shards all tie onto one bin: no empty process.
        assert hosted([0, 0], 2) == [[0, 1]]

    def test_probe_counts_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert executor._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        assert executor._usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_idle_is_counted_once_per_process(self, cpus, monkeypatch):
        result = self._run("coupled_pair", cpus, monkeypatch, telemetry=True)
        gauges = {}
        for line in result["telemetry_wall_jsonl"].splitlines():
            record = json.loads(line)
            if record.get("subsystem") == "parallel" \
                    and record.get("kind") == "gauge":
                gauges[record["name"], record["labels"].get("shard")] \
                    = float(record["value"])
        busy = [gauges["worker_busy_seconds", shard] for shard in "01"]
        idle = [gauges["worker_idle_seconds", shard] for shard in "01"]
        assert all(seconds > 0.0 for seconds in busy)
        assert idle[0] > 0.0
        assert (idle[1] == 0.0) == (cpus == 1)
        # A process is busy or idle, never both: with one process the
        # sums cannot exceed the coordinator's own wall time.
        if cpus == 1:
            assert sum(busy) + sum(idle) \
                <= gauges["coordinator_wall_seconds", None]


@st.composite
def _placement_inputs(draw):
    """2-4 cells on a line, each gap coupled (100 m), coupled across a
    6 us lookahead (2 km) or decoupled (1000 km), and any manual map
    that leaves no shard empty."""
    count = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.sampled_from([100.0, 2000.0, 1e6]),
                         min_size=count - 1, max_size=count - 1))
    builds = draw(st.lists(st.sampled_from([_bursting_build,
                                            _counting_build]),
                           min_size=count, max_size=count))
    channels = draw(st.lists(st.sampled_from([1, 1, 6]),
                             min_size=count, max_size=count))
    xs = [0.0]
    for gap in gaps:
        xs.append(xs[-1] + gap)
    cells = [spec(f"c{i}", channel=channel, x=x, build=build)
             for i, (x, build, channel) in enumerate(zip(xs, builds,
                                                         channels))]
    # Shard indices relabelled by first use: every index in range(k)
    # names at least one cell.
    drawn = draw(st.lists(st.integers(0, count - 1), min_size=count,
                          max_size=count))
    labels = {}
    manual = {cell.name: labels.setdefault(shard, len(labels))
              for cell, shard in zip(cells, drawn)}
    return (cells, manual, draw(st.integers(0, 2 ** 16)),
            draw(st.sampled_from([2e-6, 5e-6, 1e-5])), draw(st.booleans()))


class TestPlacementDifferential:
    """The same comparison as :class:`TestPlacement`, on plans nobody
    chose: one host runs the rounds itself, several are paced over the
    wire, and no compared byte may tell which."""

    @settings(max_examples=40, deadline=None)
    @given(inputs=_placement_inputs())
    def test_results_do_not_depend_on_placement(self, inputs):
        cells, manual, seed, horizon, telemetry = inputs
        shard_count = max(manual.values()) + 1
        runs = []
        for cpus in sorted({1, 2, shard_count}):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(executor, "_usable_cpus", lambda: cpus)
                runs.append(run_sharded(
                    cells, seed=seed, horizon=horizon, workers=len(cells),
                    propagation_factory=free_space, manual=manual,
                    check_invariants=True, telemetry=telemetry,
                    telemetry_interval=2e-6))
        reference = runs[0]
        assert reference["shards"] == shard_count
        for run in runs[1:]:
            for key in TestPlacement.COMPARED:
                assert run.get(key) == reference.get(key), key


def _sleepy_build(ctx):
    """A bursting cell that also spends 40 ms of wall time every 0.5 us
    of simulated time: a slow run, never a stuck one."""
    collect = _bursting_build(ctx)

    def nap():
        time.sleep(0.04)
        ctx.sim.schedule(5e-7, nap)

    ctx.sim.schedule(5e-7, nap)
    return collect


class TestWire:
    """What crosses the coordinator's end of the wire: a constant per
    run when one process hosts every shard, one message per process
    per direction per round otherwise."""

    CELLS = [spec("a", x=0.0, build=_bursting_build),
             spec("b", x=100.0, build=_bursting_build)]

    def _counted(self, monkeypatch, cpus, horizon):
        counts = {"send": 0, "recv": 0}
        send, recv = Channel.send, Channel.recv

        def counting_send(channel, message):
            counts["send"] += 1
            send(channel, message)

        def counting_recv(channel, timeout=None):
            counts["recv"] += 1
            return recv(channel, timeout)

        monkeypatch.setattr(Channel, "send", counting_send)
        monkeypatch.setattr(Channel, "recv", counting_recv)
        monkeypatch.setattr(executor, "_usable_cpus", lambda: cpus)
        result = run_sharded(self.CELLS, seed=2, horizon=horizon, workers=2,
                             propagation_factory=free_space,
                             manual={"a": 0, "b": 1})
        monkeypatch.undo()
        return counts, result

    def test_one_host_exchanges_a_constant_per_run(self, monkeypatch):
        short, short_run = self._counted(monkeypatch, 1, 1e-5)
        long, long_run = self._counted(monkeypatch, 1, 3e-5)
        assert long_run["rounds"] > 2 * short_run["rounds"]
        # No message in; the result (stats, log, round metrics) out.
        assert short == long == {"send": 0, "recv": 1}

    def test_a_cpu_per_shard_pays_a_message_per_process_per_round(
            self, monkeypatch):
        counts, result = self._counted(monkeypatch, 2, 1e-5)
        # With one shard per process, every fence is one advance out and
        # one fence back; then "ready" and "stats" in, "finish" out, per
        # process.
        fences = result["arrival_log"].count('"type":"fence"')
        assert fences >= result["rounds"]
        assert counts == {"send": fences + 2, "recv": fences + 4}

    def test_the_log_streams_in_acknowledged_pieces(self, monkeypatch):
        whole = run_sharded(self.CELLS, seed=2, horizon=1e-5, workers=2,
                            propagation_factory=free_space,
                            manual={"a": 0, "b": 1})
        monkeypatch.setattr(executor, "LOG_PIECE_LINES", 8)
        counts, pieces = self._counted(monkeypatch, 1, 1e-5)
        assert pieces["arrival_log"] == whole["arrival_log"]
        # A piece per eight lines or more, not a message per round; each
        # piece is acknowledged, the result's tail is not.
        assert 4 < counts["send"] < pieces["rounds"] / 2
        assert counts["recv"] == counts["send"] + 1

    def test_a_slow_run_that_still_advances_is_not_hung(self, monkeypatch):
        monkeypatch.setattr(executor, "RECV_DEADLINE_S", 0.25)
        monkeypatch.setattr(executor, "_usable_cpus", lambda: 1)
        cells = [spec("a", x=0.0, build=_bursting_build),
                 spec("b", x=100.0, build=_sleepy_build)]
        started = time.monotonic()
        result = run_sharded(cells, seed=2, horizon=1e-5, workers=2,
                             propagation_factory=free_space,
                             manual={"a": 0, "b": 1})
        # Twenty naps: no round outlasts the deadline, the run does
        # several times over.
        assert time.monotonic() - started > 2 * 0.25
        assert result["rounds"] == 38
        assert multiprocessing.active_children() == []
