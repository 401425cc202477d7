"""Deterministic telemetry exporters.

Two renderings of one registry:

* :func:`to_jsonl` — the canonical stream.  Same recipe as
  :class:`~repro.parallel.executor.ArrivalLog` and
  :class:`~repro.faults.schedule.FaultRecord`: every float serialized
  through ``repr`` (shortest round-trip form), every object with sorted
  keys and compact separators.  Two seeded runs therefore produce
  byte-identical ``stream="sim"`` exports — the CI determinism gate
  compares exactly this text.  ``stream="wall"`` renders only
  wall-clock-flagged metrics and is *never* byte-compared.
* :func:`summary_table` / :func:`render_table` — a columnar summary
  (one row per metric plus span rollups) and its aligned-ASCII form.

Record types in the JSONL, in emission order: one ``header``, every
``metric`` (final values, registry creation order), every ``sample``
row (series creation order, rows in time order), then ``span`` records
(ring-buffer order).  Each ordering is deterministic by construction,
so no sort over heterogeneous keys is ever needed.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .metrics import MetricKey, MetricsRegistry, format_key
from .spans import SpanLog

__all__ = ["to_jsonl", "summary_table", "render_table",
           "parse_jsonl"]

TELEMETRY_FORMAT_VERSION = 1


def _canon(value: Any) -> Any:
    """Floats become repr strings (the byte-comparable convention)."""
    if isinstance(value, float):
        return repr(value)
    return value


def _dump(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _key_fields(key: MetricKey) -> Dict[str, Any]:
    subsystem, name, labels = key
    return {"subsystem": subsystem, "name": name,
            "labels": {k: v for k, v in labels}}


def to_jsonl(registry: MetricsRegistry, spans: Optional[SpanLog] = None,
             stream: str = "sim") -> str:
    """Serialize one stream of the registry (plus spans) to JSONL."""
    wall = stream == "wall"
    lines = [_dump({"type": "header", "stream": stream,
                    "version": TELEMETRY_FORMAT_VERSION})]
    for metric in registry.metrics(wall=wall):
        record = {"type": "metric", "kind": metric.kind,
                  **_key_fields(metric.key)}
        if metric.kind == "histogram":
            record["bounds"] = [repr(bound) for bound in metric.bounds]
            record["counts"] = list(metric.counts)
            record["total"] = metric.total
            record["sum"] = repr(metric.sum)
        else:
            record["value"] = _canon(metric.value)
        lines.append(_dump(record))
    for key in registry.series_keys(wall=wall):
        fields = _key_fields(key)
        for time, value in registry.series(key):
            lines.append(_dump({"type": "sample", **fields,
                                "t": repr(time), "v": _canon(value)}))
    if spans is not None and not wall:
        for span in spans:
            lines.append(_dump({
                "type": "span", "span": span.span_type,
                "subject": span.subject, "start": repr(span.start),
                "end": None if span.end is None else repr(span.end),
                "outcome": span.outcome,
                "attrs": {k: _canon(v) for k, v in span.attrs.items()}}))
    return "\n".join(lines) + "\n"


def parse_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse an exported stream back into records (floats stay repr
    strings — byte-faithful round-trips matter more than types here;
    consumers like teleview convert on use)."""
    return [json.loads(line) for line in text.splitlines() if line]


# --- columnar summary ------------------------------------------------------


def summary_table(registry: MetricsRegistry,
                  spans: Optional[SpanLog] = None) -> Dict[str, Any]:
    """Columnar rollup: one row per metric, plus per-type span totals."""
    columns = ["metric", "kind", "stream", "value"]
    rows: List[List[Any]] = []
    for metric in registry.metrics():
        stream = "wall" if metric.wall else "sim"
        if metric.kind == "histogram":
            value = (f"n={metric.total} mean={metric.mean:.6g}"
                     if metric.total else "n=0")
        else:
            value = metric.value
        rows.append([format_key(metric.key), metric.kind, stream, value])
    span_rows: List[List[Any]] = []
    if spans is not None:
        rollup: Dict[tuple, List[float]] = {}
        order: List[tuple] = []
        for span in spans:
            bucket = (span.span_type, span.outcome)
            stats = rollup.get(bucket)
            if stats is None:
                stats = rollup[bucket] = [0, 0.0]
                order.append(bucket)
            stats[0] += 1
            if span.end is not None:
                stats[1] += span.end - span.start
        for span_type, outcome in order:
            count, total = rollup[(span_type, outcome)]
            span_rows.append([span_type, outcome, count, total])
    return {"columns": columns, "rows": rows,
            "span_columns": ["span", "outcome", "count", "total_duration"],
            "span_rows": span_rows}


def render_table(columns: List[str], rows: List[List[Any]]) -> str:
    """Aligned-ASCII rendering of a columnar table."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered:
        for index, cell in enumerate(row):
            if len(cell) > widths[index]:
                widths[index] = len(cell)
    def _line(cells: List[str]) -> str:
        return "  ".join(cell.ljust(widths[index])
                         for index, cell in enumerate(cells)).rstrip()
    out = [_line(columns), _line(["-" * width for width in widths])]
    out.extend(_line(row) for row in rendered)
    return "\n".join(out)
