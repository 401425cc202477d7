"""Exporters: JSONL byte conventions, the sim/wall stream split and
the columnar summary."""

import json

from repro.telemetry.export import (TELEMETRY_FORMAT_VERSION, parse_jsonl,
                                    render_table, summary_table,
                                    to_jsonl)
from repro.telemetry.metrics import MetricsRegistry, make_key
from repro.telemetry.spans import Span, SpanLog


def _populated_registry():
    registry = MetricsRegistry()
    registry.counter("mac", "frames", ap="a").inc(3)
    registry.gauge("kernel", "heap").set(17.5)
    hist = registry.histogram("medium", "fanout", bounds=(1.0, 5.0))
    hist.observe(0.5)
    hist.observe(4.0)
    registry.gauge("parallel", "busy", wall=True).set(0.25)
    registry.record_sample(make_key("kernel", "heap", {}), 0.1, 12.0)
    registry.record_sample(make_key("kernel", "heap", {}), 0.2, 13.0)
    registry.record_sample(make_key("parallel", "idle", {}), 0.2, 1.0,
                           wall=True)
    return registry


class TestJsonl:
    def test_record_order_and_float_repr(self):
        text = to_jsonl(_populated_registry())
        assert text.endswith("\n")
        records = parse_jsonl(text)
        assert [r["type"] for r in records] \
            == ["header", "metric", "metric", "metric", "sample", "sample"]
        header = records[0]
        assert header["stream"] == "sim"
        assert header["version"] == TELEMETRY_FORMAT_VERSION
        gauge = records[2]
        assert gauge["value"] == "17.5"  # repr string, not a float
        sample = records[4]
        assert sample["t"] == "0.1" and sample["v"] == "12.0"

    def test_lines_are_compact_and_key_sorted(self):
        for line in to_jsonl(_populated_registry()).splitlines():
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))

    def test_wall_stream_excludes_sim_metrics_and_spans(self):
        spans = SpanLog()
        spans.record(Span("frame", "s", 0.0, end=1.0, outcome="delivered"))
        text = to_jsonl(_populated_registry(), spans=spans, stream="wall")
        records = parse_jsonl(text)
        assert records[0]["stream"] == "wall"
        names = [(r.get("subsystem"), r.get("name")) for r in records[1:]]
        assert names == [("parallel", "busy"), ("parallel", "idle")]
        assert all(r["type"] != "span" for r in records)

    def test_histogram_record_carries_bounds_counts_sum(self):
        records = parse_jsonl(to_jsonl(_populated_registry()))
        (hist,) = [r for r in records if r.get("kind") == "histogram"]
        assert hist["bounds"] == ["1.0", "5.0"]
        assert hist["counts"] == [1, 1, 0]
        assert hist["total"] == 2
        assert hist["sum"] == "4.5"

    def test_span_records_in_sim_stream(self):
        spans = SpanLog()
        spans.record(Span("frame", "s", 0.25, end=1.5, outcome="delivered",
                          attrs={"attempts": 2, "first_tx": 0.5}))
        records = parse_jsonl(to_jsonl(_populated_registry(), spans=spans))
        (span,) = [r for r in records if r["type"] == "span"]
        assert span["start"] == "0.25" and span["end"] == "1.5"
        assert span["outcome"] == "delivered"
        assert span["attrs"] == {"attempts": 2, "first_tx": "0.5"}

    def test_two_exports_of_same_registry_are_byte_identical(self):
        registry = _populated_registry()
        assert to_jsonl(registry) == to_jsonl(registry)


class TestSummary:
    def test_table_rows_and_span_rollup(self):
        spans = SpanLog()
        spans.record(Span("frame", "a", 0.0, end=1.0, outcome="delivered"))
        spans.record(Span("frame", "b", 0.0, end=3.0, outcome="delivered"))
        spans.record(Span("frame", "c", 0.0, end=2.0, outcome="dropped"))
        summary = summary_table(_populated_registry(), spans)
        assert summary["columns"] == ["metric", "kind", "stream", "value"]
        by_name = {row[0]: row for row in summary["rows"]}
        assert by_name["mac/frames{ap=a}"][1:] == ["counter", "sim", 3]
        assert by_name["parallel/busy"][2] == "wall"
        assert by_name["medium/fanout"][3] == "n=2 mean=2.25"
        assert summary["span_rows"] == [["frame", "delivered", 2, 4.0],
                                        ["frame", "dropped", 1, 2.0]]

    def test_render_table_aligns(self):
        text = render_table(["a", "bee"], [["x", 1], ["long", 22]])
        lines = text.splitlines()
        assert lines[0] == "a     bee"
        assert lines[1] == "----  ---"
        assert lines[2] == "x     1"
        assert lines[3] == "long  22"
