"""Span ring buffer semantics and the frame-lifecycle tracker driven
through the DcfMac probe hook on a real two-station contention run."""

from repro.core.engine import Simulator
from repro.core.topology import Position
from repro.core.trace import TraceLog
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.telemetry.spans import (FRAME_DELIVERED, FRAME_ENQUEUE, FRAME_RX,
                                   FRAME_TX, FrameSpanTracker, Span, SpanLog)


class TestSpanLog:
    def test_ring_buffer_drops_oldest_and_counts(self):
        log = SpanLog(capacity=2)
        for index in range(3):
            log.record(Span("frame", f"s{index}", 0.0, end=1.0))
        assert len(log) == 2
        assert [span.subject for span in log] == ["s1", "s2"]
        assert log.dropped == 1

    def test_type_mask_gates_wants(self):
        log = SpanLog()
        assert log.wants("frame")
        log.enable_only("fault")
        assert not log.wants("frame")
        assert log.wants("fault")
        log.enable_all()
        assert log.wants("frame")
        log.enabled = False
        assert not log.wants("fault")

    def test_select_filters_type_and_outcome(self):
        log = SpanLog()
        log.record(Span("frame", "a", 0.0, end=1.0, outcome="delivered"))
        log.record(Span("frame", "b", 0.0, end=1.0, outcome="dropped"))
        log.record(Span("fault", "c", 0.0, end=1.0, outcome="down"))
        assert [s.subject for s in log.select(span_type="frame")] \
            == ["a", "b"]
        assert [s.subject for s in log.select(outcome="dropped")] == ["b"]

    def test_duration(self):
        assert Span("frame", "a", 1.5, end=4.0).duration == 2.5
        assert Span("frame", "a", 1.5).duration is None


class _FakeMac:
    def __init__(self, sim, address="aa"):
        self.sim = sim
        self.address = address
        self._frame_probe = None


class TestFrameSpanTracker:
    def test_lifecycle_builds_one_span(self):
        sim = Simulator(seed=1)
        tracker = FrameSpanTracker(SpanLog())
        mac = _FakeMac(sim)
        tracker.attach(mac, name="sta")
        msdu = object()
        sim._now = 1.0
        mac._frame_probe(FRAME_ENQUEUE, msdu)
        sim._now = 1.25
        mac._frame_probe(FRAME_TX, msdu)
        sim._now = 1.5
        mac._frame_probe(FRAME_TX, msdu)
        mac._frame_probe(FRAME_DELIVERED, msdu)
        (span,) = list(tracker.spans)
        assert span.subject == "sta"
        assert span.start == 1.0 and span.end == 1.5
        assert span.outcome == "delivered"
        assert span.attrs["first_tx"] == 1.25
        assert span.attrs["attempts"] == 2
        assert tracker.open_count() == 0

    def test_rx_counts_per_mac_without_opening_spans(self):
        sim = Simulator(seed=1)
        tracker = FrameSpanTracker(SpanLog())
        mac = _FakeMac(sim)
        tracker.attach(mac, name="rxer")
        mac._frame_probe(FRAME_RX, object())
        mac._frame_probe(FRAME_RX, object())
        assert tracker.rx_frames == {"rxer": 2}
        assert len(tracker.spans) == 0

    def test_finish_flushes_open_spans_in_enqueue_order(self):
        sim = Simulator(seed=1)
        tracker = FrameSpanTracker(SpanLog())
        mac = _FakeMac(sim)
        tracker.attach(mac, name="sta")
        first, second = object(), object()
        sim._now = 1.0
        mac._frame_probe(FRAME_ENQUEUE, first)
        sim._now = 2.0
        mac._frame_probe(FRAME_ENQUEUE, second)
        tracker.finish(now=3.0)
        spans = list(tracker.spans)
        assert [s.start for s in spans] == [1.0, 2.0]
        assert all(s.outcome == "open" and s.end == 3.0 for s in spans)
        assert tracker.open_count() == 0

    def test_detach_restores_the_probe_slot(self):
        sim = Simulator(seed=1)
        tracker = FrameSpanTracker(SpanLog())
        mac = _FakeMac(sim)
        tracker.attach(mac)
        assert mac._frame_probe is not None
        tracker.detach_all()
        assert mac._frame_probe is None

    def test_real_dcf_run_produces_delivered_spans(self):
        sim = Simulator(seed=7, trace=TraceLog(enabled=False))
        medium = Medium(sim, FixedLoss(50.0))
        config = DcfConfig()
        factory = fixed_rate_factory("CCK-11")
        rx_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0))
        receiver = DcfMac(sim, rx_radio, allocate_address(), config=config,
                          rate_factory=factory)
        tracker = FrameSpanTracker(SpanLog())
        tracker.attach(receiver, name="rx")
        senders = []
        for index in range(2):
            radio = Radio(f"tx{index}", medium, DOT11B,
                          Position(1.0 + index * 0.1, 0, 0))
            mac = DcfMac(sim, radio, allocate_address(), config=config,
                         rate_factory=factory)
            tracker.attach(mac, name=f"tx{index}")
            senders.append(mac)
        payload = bytes(200)
        for mac in senders:
            for _ in range(3):
                mac.send(receiver.address, payload)
        sim.run(until=0.5)
        tracker.finish(sim._now)
        delivered = tracker.spans.select(outcome="delivered")
        assert delivered, "uncontended senders must deliver frames"
        for span in delivered:
            assert span.end >= span.start
            assert span.attrs["attempts"] >= 1
            assert span.attrs["first_tx"] is not None
        # The receiver saw every delivered data frame.
        assert tracker.rx_frames.get("rx", 0) >= len(delivered)

    def test_spans_orphaned_by_a_crash_outlive_their_msdus_ids(self):
        """``crash()`` discards the in-flight MSDU and the queue without
        a ``dropped`` edge.  Were the objects freed then, a later MSDU
        could be given one's ``id()`` and its enqueue would overwrite
        the orphaned span: the export would depend on the allocator."""
        def crash_then_allocate(tracked):
            sim = Simulator(seed=7, trace=TraceLog(enabled=False))
            medium = Medium(sim, FixedLoss(50.0))
            victim, other, sink = [
                DcfMac(sim, Radio(name, medium, DOT11B,
                                  Position(float(index), 0, 0)),
                       allocate_address(),
                       config=DcfConfig(queue_capacity=20_000))
                for index, name in enumerate(("victim", "other", "sink"))]
            tracker = FrameSpanTracker(SpanLog())
            if tracked:
                tracker.attach(victim, name="victim")
                tracker.attach(other, name="other")
            seen, forward = set(), other._frame_probe

            def probe(event, msdu):
                if event == FRAME_ENQUEUE:
                    seen.add(id(msdu))
                if forward is not None:
                    forward(event, msdu)
            other._frame_probe = probe
            # Busy already, so its later sends allocate an MSDU and
            # nothing else that could take a freed MSDU's place.
            other.send(sink.address, b"")
            victim.send(sink.address, bytes(100))
            victim.send(sink.address, bytes(100))
            orphans = {id(victim._current.msdu), id(victim.queue.peek())}
            assert len(orphans) == 2         # one in flight, one queued
            victim.crash()
            while not orphans & seen and len(other.queue) < 19_000:
                other.send(sink.address, b"")
            tracker.finish(sim.now)
            return bool(orphans & seen), tracker

        # (Which block a new object gets is the allocator's business:
        # the control may take a few worlds to see a freed id again.)
        assert any(crash_then_allocate(tracked=False)[0] for _ in range(5)), \
            "the allocator never reused a freed MSDU's id: this test " \
            "cannot see what it is here to see"
        recycled, tracker = crash_then_allocate(tracked=True)
        assert not recycled                  # held: the ids stay taken
        orphaned = [span for span in tracker.spans if span.subject == "victim"]
        assert [(span.outcome, span.start, span.attrs["attempts"])
                for span in orphaned] == [("open", 0.0, 0), ("open", 0.0, 0)]
