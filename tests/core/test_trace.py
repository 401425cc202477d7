"""Tests for the trace log."""

import hashlib

from repro.core.trace import (CHECKPOINT_EVERY, TraceDigest, TraceLog,
                              TraceRecord, render)


class TestTraceLog:
    def test_record_and_iterate(self):
        log = TraceLog()
        log.record(0.5, "sta1", "tx-start", bits=100)
        log.record(0.6, "sta2", "rx-end")
        records = list(log)
        assert len(records) == 2
        assert records[0].source == "sta1"
        assert records[0].detail == {"bits": 100}

    def test_select_by_source_and_event(self):
        log = TraceLog()
        log.record(0.1, "a", "tx")
        log.record(0.2, "b", "tx")
        log.record(0.3, "a", "rx")
        assert len(log.select(source="a")) == 2
        assert len(log.select(event="tx")) == 2
        assert len(log.select(source="a", event="tx")) == 1

    def test_select_with_predicate(self):
        log = TraceLog()
        log.record(0.1, "a", "tx", size=10)
        log.record(0.2, "a", "tx", size=99)
        big = log.select(predicate=lambda r: r.detail.get("size", 0) > 50)
        assert len(big) == 1

    def test_capacity_drops_oldest(self):
        log = TraceLog(capacity=3)
        for index in range(5):
            log.record(float(index), "s", f"e{index}")
        assert len(log) == 3
        assert log.dropped == 2
        assert list(log)[0].event == "e2"

    def test_disabled_log_records_nothing(self):
        log = TraceLog(enabled=False)
        log.record(0.1, "s", "e")
        assert len(log) == 0

    def test_clear(self):
        log = TraceLog()
        log.record(0.1, "s", "e")
        log.clear()
        assert len(log) == 0

    def test_format_renders_lines(self):
        log = TraceLog()
        log.record(1e-3, "sta", "tx-start", mode="OFDM-54")
        text = log.format()
        assert "sta" in text
        assert "tx-start" in text
        assert "mode=OFDM-54" in text

    def test_format_limit_takes_tail(self):
        log = TraceLog()
        for index in range(10):
            log.record(float(index), "s", f"e{index}")
        tail = log.format(limit=2)
        assert "e8" in tail and "e9" in tail and "e7" not in tail


class TestEventMask:
    def test_enable_only_filters_event_types(self):
        log = TraceLog()
        log.enable_only("tx-start")
        log.record(0.1, "a", "tx-start")
        log.record(0.2, "a", "rx-end")
        assert len(log) == 1
        assert list(log)[0].event == "tx-start"

    def test_enable_all_events_restores_everything(self):
        log = TraceLog()
        log.enable_only("tx-start")
        log.enable_all_events()
        log.record(0.1, "a", "rx-end")
        assert len(log) == 1

    def test_wants_reflects_enabled_and_mask(self):
        log = TraceLog()
        assert log.wants("anything")
        log.enable_only("tx-start")
        assert log.wants("tx-start")
        assert not log.wants("rx-end")
        log.enabled = False
        assert not log.wants("tx-start")

    def test_filtered_events_do_not_count_as_dropped(self):
        log = TraceLog(capacity=2)
        log.enable_only("keep")
        for index in range(5):
            log.record(float(index), "s", "skip")
        assert log.dropped == 0
        for index in range(5):
            log.record(float(index), "s", "keep")
        assert len(log) == 2
        assert log.dropped == 3


class TestCapacityEviction:
    def test_dropped_counter_stays_accurate_under_sustained_overflow(self):
        log = TraceLog(capacity=10)
        for index in range(1000):
            log.record(float(index), "s", "e")
        assert len(log) == 10
        assert log.dropped == 990
        assert list(log)[0].time == 990.0

    def test_unbounded_log_never_drops(self):
        log = TraceLog(capacity=None)
        for index in range(500):
            log.record(float(index), "s", "e")
        assert len(log) == 500
        assert log.dropped == 0


class TestTraceRecord:
    def test_format_microseconds(self):
        record = TraceRecord(1.5e-6, "x", "y")
        assert "1.500us" in record.format()


class TestTraceDigest:
    def test_digest_is_the_sha1_of_the_rendered_lines(self):
        digest = TraceDigest()
        digest.record(0.1, "tx0", "phy-tx-start", mode="CCK-11", bits=800)
        digest.record(0.25, "rx", "phy-power-off")
        lines = "0.1 tx0 phy-tx-start bits=800 mode='CCK-11'\n" \
                "0.25 rx phy-power-off \n"
        assert render(0.25, "rx", "phy-power-off", {}) + "\n" \
            == lines.splitlines(keepends=True)[1]
        assert digest.hexdigest() == hashlib.sha1(lines.encode()).hexdigest()
        assert digest.records == 2 and digest.checkpoints == []

    def test_a_checkpoint_every_block_of_records(self):
        digest = TraceDigest()
        prefix = hashlib.sha1()
        for index in range(2 * CHECKPOINT_EVERY + 1):
            digest.record(index * 1e-3, "s", "e", n=index)
            prefix.update((render(index * 1e-3, "s", "e", {"n": index})
                           + "\n").encode())
            if index + 1 == CHECKPOINT_EVERY:
                first = prefix.hexdigest()
        assert [(index, time) for index, time, _ in digest.checkpoints] == [
            (CHECKPOINT_EVERY, (CHECKPOINT_EVERY - 1) * 1e-3),
            (2 * CHECKPOINT_EVERY, (2 * CHECKPOINT_EVERY - 1) * 1e-3)]
        assert digest.checkpoints[0][2] == first
        assert digest.hexdigest() == prefix.hexdigest()
