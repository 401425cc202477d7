"""Probe layer: the kernel dispatch tallies and gauges, the medium's
transmit observer, fleet gauges, downtime spans, and the Telemetry hub's
one posture."""

import re

import pytest

from repro.core.engine import Simulator, Timer, ckernel_available
from repro.core.errors import ConfigurationError
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
from repro.telemetry.probes import (KernelDispatchProbe, MediumProbe,
                                    Telemetry, record_fault_spans)
from repro.telemetry.spans import SpanLog


def _saturated_pair(seed=7, telemetry=True, interval=0.01):
    """Two senders to one receiver, instrumented end to end; with
    ``telemetry=False`` no hub is built and ``hub`` is None."""
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
    hub = None
    if telemetry:
        hub = Telemetry(sim, sample_interval=interval)
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
        probe.uninstall()
        assert fired == plain_fired == ["fast", "timer"]
        assert sim._now == plain_sim._now
        assert sim._events_executed == plain_sim._events_executed
        assert probe.dispatch_fast.value == 1
        assert probe.dispatch_timer.value == 1
        assert probe.drops_timer.value == 1
        assert probe.drops_handle.value == 1

    def test_install_never_shadows_run(self):
        sim = Simulator(seed=3)
        probe = KernelDispatchProbe(sim, MetricsRegistry()).install()
        sim.schedule(0.1, lambda: None)
        sim.run()
        assert "run" not in sim.__dict__
        assert probe.dispatch_handle.value == 0     # booked at uninstall
        probe.uninstall()
        assert probe.dispatch_handle.value == 1
        probe.uninstall()                           # idempotent
        assert probe.dispatch_handle.value == 1

    def test_a_second_install_keeps_the_first_baseline(self):
        sim = Simulator(seed=3)
        probe = KernelDispatchProbe(sim, MetricsRegistry()).install()
        sim.schedule(0.1, lambda: None)
        sim.run()
        probe.install()
        probe.uninstall()
        assert probe.dispatch_handle.value == 1

    @pytest.mark.parametrize("kernel", [
        "python", pytest.param("c", marks=pytest.mark.skipif(
            not ckernel_available(), reason="compiled kernel not built"))])
    def test_kernel_gauges_read_the_live_queue_mid_run(self, kernel):
        # The sampler fires inside run(until=...), where the stored
        # executed counter still holds the run's start: the gauges must
        # count the queue instead.  Hub first, so each sample precedes
        # the raw entry due at its instant.
        sim = Simulator(kernel=kernel)
        hub = Telemetry(sim, sample_interval=0.1)
        hub.instrument_kernel()
        hub.install()
        for index in range(100):
            sim.schedule_fast(index * 0.005, lambda: None)
        sim.run(until=0.5)

        def values(name):
            key, = [key for key in hub.registry.series_keys()
                    if key[:2] == ("kernel", name)]
            return [value for _time, value in hub.registry.series(key)]

        assert values("events_executed") == [21, 43, 64, 85, 105]
        assert values("pending_events") == [80, 59, 39, 19, 0]


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

    def test_finish_unregisters_the_observer(self):
        sim, medium, macs, hub = _saturated_pair()
        sim.run(until=0.05)
        probe, = hub._medium_probes
        assert medium.observers == (probe._observe,)
        hub.finish()
        assert medium.observers == ()
        assert "transmit" not in medium.__dict__
        assert all(mac._frame_probe is None for mac in macs)

    def test_a_medium_takes_one_probe(self):
        sim, medium, macs, hub = _saturated_pair()
        probe, = hub._medium_probes
        named = re.escape(repr(medium))
        with pytest.raises(ConfigurationError, match=named):
            hub.instrument_medium(medium)
        for second in (probe, MediumProbe(medium, MetricsRegistry())):
            with pytest.raises(ConfigurationError, match=named):
                second.install()
        sim.run(until=0.05)
        hub.finish()
        probe.uninstall()  # a second uninstall does nothing
        assert medium.observers == ()
        # The refused probes sample nothing: one point per sample.
        assert len(hub.registry.series(("medium", "plan_hits", ()))) \
            == len(hub.registry.series(("kernel", "heap_depth", ()))) > 0
        # Every frame counted once: each transmit is one plan hit or miss.
        frames = hub.registry.get("medium", "frames", channel=1).value
        assert frames == medium.plan_hits + medium.plan_misses > 0

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
            if hub is not None:
                hub.finish()
            return [(str(mac.address), dict(mac.counters.as_dict()))
                    for mac in macs]

        assert _deliveries(telemetry=False) == _deliveries(telemetry=True)

    def test_a_receiver_s_probe_sees_no_event(self):
        # Only sender-side edges reach a MAC's frame probe.
        sim, medium, macs, hub = _saturated_pair()
        events = []
        macs[0]._frame_probe = lambda event, msdu: events.append(event)
        sim.run(until=0.2)
        assert macs[0].counters.get("rx_data") > 0 and events == []


class TestHub:
    def test_telemetry_off_builds_no_hub(self):
        sim, medium, macs, hub = _saturated_pair(telemetry=False)
        assert hub is None and "transmit" not in medium.__dict__

    def test_a_hub_refuses_to_be_built_off(self):
        with pytest.raises(ConfigurationError, match="builds no hub"):
            Telemetry(Simulator(seed=1), enabled=False)

    def test_the_benchmark_s_call_builds_a_hub(self):
        hub = Telemetry(Simulator(seed=1), enabled=True, sample_interval=0.05)
        assert hub.sampler.interval == 0.05

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
