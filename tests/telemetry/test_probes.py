"""Probe layer: the instrumented kernel loop, the medium transmit wrap,
fleet gauges, downtime spans, and the Telemetry hub's null path."""

import pytest

from repro.core.engine import Simulator, Timer, ckernel_available
from repro.core.topology import Position
from repro.core.trace import TraceLog
from repro.faults import FaultLog
from repro.faults.schedule import FaultRecord
from repro.mac.addresses import allocate_address, reset_allocator
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.probes import (KernelDispatchProbe, Telemetry,
                                    record_fault_spans)
from repro.telemetry.spans import SpanLog


def _saturated_pair(seed=7, telemetry=True, interval=0.01):
    """Two senders to one receiver, instrumented end to end."""
    sim = Simulator(seed=seed, trace=TraceLog(enabled=False))
    medium = Medium(sim, FixedLoss(50.0))
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    rx_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0))
    receiver = DcfMac(sim, rx_radio, allocate_address(), config=config,
                      rate_factory=factory)
    macs = [receiver]
    for index in range(2):
        radio = Radio(f"tx{index}", medium, DOT11B,
                      Position(1.0 + index * 0.1, 0, 0))
        mac = DcfMac(sim, radio, allocate_address(), config=config,
                     rate_factory=factory)
        macs.append(mac)
    hub = Telemetry(sim, enabled=telemetry, sample_interval=interval)
    hub.instrument_kernel()
    hub.instrument_medium(medium)
    hub.instrument_macs(macs)
    hub.instrument_radios(medium._radios)
    hub.install()
    payload = bytes(200)
    for mac in macs[1:]:
        for _ in range(3):
            mac.send(receiver.address, payload)
    return sim, medium, macs, hub


class TestKernelDispatchProbe:
    def test_counts_by_entry_shape_with_identical_outcome(self):
        def _run(instrumented):
            sim = Simulator(seed=3)
            probe = None
            if instrumented:
                probe = KernelDispatchProbe(sim, MetricsRegistry())
                probe.install()
            fired = []
            sim.schedule_fast_at(0.1, lambda: fired.append("fast"))
            handle = sim.schedule_at(0.3, lambda: fired.append("cancelled"))
            handle.cancel()
            timer = Timer(sim, lambda: fired.append("timer"))
            timer.schedule_at(0.2)
            timer.schedule_at(0.25)  # supersede: one lazy timer drop
            sim.run(until=1.0)
            return sim, probe, fired

        plain_sim, _none, plain_fired = _run(instrumented=False)
        sim, probe, fired = _run(instrumented=True)
        assert fired == plain_fired == ["fast", "timer"]
        assert sim._now == plain_sim._now
        assert sim._events_executed == plain_sim._events_executed
        assert probe.dispatch_fast.value == 1
        assert probe.dispatch_timer.value == 1
        assert probe.drops_timer.value == 1
        assert probe.drops_handle.value == 1

    @pytest.mark.skipif(not ckernel_available(),
                        reason="compiled kernel not built")
    def test_probed_midlife_pops_a_populated_c_queue_in_the_same_order(
            self, midlife_schedule):
        # Arming the probe on a kernel="c" simulator that already holds
        # >= 100 entries swaps the loop, not the queue: the probe's
        # Python loop pops the C queue through ``sim._pop`` while the
        # compiled primitives keep pushing structs into it.
        probes = []

        def probe(sim):
            probes.append(
                KernelDispatchProbe(sim, MetricsRegistry()).install())

        reference = midlife_schedule("python")
        assert midlife_schedule("c", probe) == reference
        assert midlife_schedule("python", probe) == reference
        assert [type(armed.sim._heap) is list for armed in probes] \
            == [False, True]
        for armed in probes:        # every shape went through the probe
            assert armed.dispatch_fast.value > 0
            assert armed.dispatch_timer.value > 0
            assert armed.dispatch_handle.value > 0
            assert armed.drops_timer.value > 0
            assert armed.drops_handle.value > 0

    def test_uninstall_restores_class_method(self):
        sim = Simulator(seed=3)
        probe = KernelDispatchProbe(sim, MetricsRegistry()).install()
        assert "run" in sim.__dict__
        probe.uninstall()
        assert "run" not in sim.__dict__

    def test_disabled_registry_never_installs(self):
        sim = Simulator(seed=3)
        KernelDispatchProbe(sim, MetricsRegistry(enabled=False)).install()
        assert "run" not in sim.__dict__


class TestInstrumentedRun:
    def test_medium_probe_counts_frames_and_fanout(self):
        sim, medium, macs, hub = _saturated_pair()
        sim.run(until=0.2)
        hub.finish()
        frames = hub.registry.get("medium", "frames", channel=1)
        airtime = hub.registry.get("medium", "airtime_seconds", channel=1)
        assert frames.value > 0
        assert airtime.value > 0.0
        fanout = hub.registry.get("medium", "fanout_width")
        assert fanout.total == frames.value
        # 3 radios on the channel: every transmit reaches the other 2.
        assert fanout.mean == pytest.approx(2.0)

    def test_finish_restores_wrapped_methods(self):
        sim, medium, macs, hub = _saturated_pair()
        sim.run(until=0.05)
        assert "transmit" in medium.__dict__
        hub.finish()
        assert "transmit" not in medium.__dict__
        assert all(mac._frame_probe is None for mac in macs)

    def test_fleet_gauges_sample_series(self):
        sim, medium, macs, hub = _saturated_pair()
        sim.run(until=0.2)
        hub.finish()
        for subsystem, name in (("mac", "queue_depth_total"),
                                ("mac", "retry_timeouts"),
                                ("kernel", "heap_depth"),
                                ("phy", "arrivals_incident")):
            keys = [key for key in hub.registry.series_keys()
                    if key[:2] == (subsystem, name)]
            assert keys, f"no series for {subsystem}/{name}"
            assert hub.registry.series(keys[0])

    def test_protocol_outcomes_unchanged_by_instrumentation(self):
        def _deliveries(telemetry):
            reset_allocator()  # same addresses for both builds
            sim, medium, macs, hub = _saturated_pair(telemetry=telemetry)
            sim.run(until=0.2)
            hub.finish()
            return [(str(mac.address), dict(mac.counters.as_dict()))
                    for mac in macs]

        assert _deliveries(telemetry=False) == _deliveries(telemetry=True)


class TestNullHub:
    def test_disabled_hub_is_inert(self):
        sim, medium, macs, hub = _saturated_pair(telemetry=False)
        assert len(hub.registry) == 0
        assert not hub.sampler.installed
        assert "transmit" not in medium.__dict__
        assert "run" not in sim.__dict__
        assert all(mac._frame_probe is None for mac in macs)
        before = sim._scheduled
        sim.run(until=0.05)
        hub.finish()
        # No sampler events were ever injected.
        assert all(entry[2] is not None or entry[3].__name__ != "_sample"
                   for entry in sim._heap)
        assert len(hub.spans) == 0

    def test_finish_is_idempotent(self):
        sim, medium, macs, hub = _saturated_pair()
        sim.run(until=0.05)
        hub.finish()
        spans_after_first = len(hub.spans)
        hub.finish()
        assert len(hub.spans) == spans_after_first


class TestFaultSpans:
    def test_crash_restart_pairs_become_downtime_spans(self):
        log = FaultLog()
        log.append(FaultRecord(1.0, "crash", "ap0"))
        log.append(FaultRecord(3.0, "restart", "ap0"))
        log.append(FaultRecord(5.0, "crash", "ap1"))
        spans = SpanLog()
        assert record_fault_spans(log, spans, horizon=8.0) == 2
        restored = spans.select(outcome="restored")
        assert [(s.subject, s.start, s.end) for s in restored] \
            == [("ap0", 1.0, 3.0)]
        still_down = spans.select(outcome="open")
        assert [(s.subject, s.start, s.end) for s in still_down] \
            == [("ap1", 5.0, 8.0)]

    def test_span_mask_short_circuits(self):
        log = FaultLog()
        log.append(FaultRecord(1.0, "crash", "ap0"))
        spans = SpanLog()
        spans.enable_only("frame")
        assert record_fault_spans(log, spans, horizon=2.0) == 0
        assert len(spans) == 0
