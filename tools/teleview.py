#!/usr/bin/env python3
"""ASCII viewer for exported telemetry streams.

Renders a ``*.telemetry.jsonl`` file (from ``run_sharded``,
``capture_golden.py --telemetry``, or any campaign job run with
``mode.telemetry = true``) as aligned tables and character timelines — no
plotting stack, no web UI, just a terminal:

    PYTHONPATH=src python tools/teleview.py /tmp/cap/dcf_saturation.telemetry.jsonl
    PYTHONPATH=src python tools/teleview.py merged.jsonl --grep 'mac/' --width 100

Sections, in order: the final-value metric table (``--top`` biggest
counters first), one timeline per sampled series (sim-time on the x
axis, min..max normalized to a 9-glyph ramp), span rollups, and the
``--top`` slowest closed frame spans.  Merged sharded streams are
understood: ``source`` marker lines scope each shard's series, and the
source tag becomes part of the rendered series name.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.telemetry.export import parse_jsonl, render_table  # noqa: E402

#: Dark-to-bright ramp for timeline cells (pure ASCII, 9 levels).
RAMP = " .:-=+*#@"


def _metric_label(record: Dict[str, Any], source: str) -> str:
    labels = record.get("labels") or {}
    base = f"{record['subsystem']}/{record['name']}"
    if labels:
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        base = f"{base}{{{inner}}}"
    if source:
        base = f"{source}:{base}"
    return base


def _as_float(value: Any) -> float:
    # Exported floats are repr strings; counters stay ints.
    return float(value)


def load_stream(text: str) -> Dict[str, Any]:
    """Split a (possibly merged) stream into metrics/series/spans.

    Returns ``{"metrics": [...], "series": {label: [(t, v), ...]},
    "series_order": [...], "spans": [...], "sources": int}``.
    """
    metrics: List[Tuple[str, Dict[str, Any]]] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    series_order: List[str] = []
    spans: List[Dict[str, Any]] = []
    source = ""
    sources = 0
    for record in parse_jsonl(text):
        kind = record.get("type")
        if kind == "source":
            sources += 1
            if record.get("source") == "shard":
                source = f"shard{record['shard']}"
            else:
                source = str(record.get("source", ""))
            continue
        if kind in ("header", "merged", "part"):
            continue
        if kind == "metric":
            metrics.append((source, record))
        elif kind == "sample":
            label = _metric_label(record, source)
            rows = series.get(label)
            if rows is None:
                rows = series[label] = []
                series_order.append(label)
            rows.append((_as_float(record["t"]), _as_float(record["v"])))
        elif kind == "span":
            spans.append(record)
    return {"metrics": metrics, "series": series,
            "series_order": series_order, "spans": spans,
            "sources": sources}


def metric_rows(metrics: List[Tuple[str, Dict[str, Any]]],
                top: int) -> List[List[Any]]:
    """Final-value rows, biggest magnitudes first, capped at ``top``."""
    rows: List[Tuple[float, List[Any]]] = []
    for source, record in metrics:
        label = _metric_label(record, source)
        if record["kind"] == "histogram":
            total = record["total"]
            mean = _as_float(record["sum"]) / total if total else 0.0
            rows.append((float(total),
                         [label, "histogram", f"n={total} mean={mean:.6g}"]))
        else:
            value = record["value"]
            rows.append((abs(_as_float(value)),
                         [label, record["kind"], value]))
    rows.sort(key=lambda item: -item[0])
    return [row for _sort_key, row in rows[:top]]


def render_timeline(rows: List[Tuple[float, float]], width: int) -> str:
    """One-line min..max-normalized character strip for a series."""
    if not rows:
        return ""
    cells: List[List[float]] = [[] for _ in range(width)]
    t_low, t_high = rows[0][0], rows[-1][0]
    t_span = t_high - t_low
    for time, value in rows:
        index = int((time - t_low) / t_span * (width - 1)) if t_span else 0
        cells[index].append(value)
    values = [value for _time, value in rows]
    v_low, v_high = min(values), max(values)
    v_span = v_high - v_low
    out = []
    for bucket in cells:
        if not bucket:
            out.append(" ")
            continue
        level = max(bucket)
        if v_span:
            rank = int((level - v_low) / v_span * (len(RAMP) - 1))
        else:
            rank = len(RAMP) - 1 if level else 0
        out.append(RAMP[rank])
    return "".join(out)


def span_sections(spans: List[Dict[str, Any]],
                  top: int) -> List[str]:
    rollup: Dict[Tuple[str, str], List[float]] = {}
    order: List[Tuple[str, str]] = []
    closed: List[Tuple[float, Dict[str, Any]]] = []
    for span in spans:
        bucket = (span["span"], span["outcome"])
        stats = rollup.get(bucket)
        if stats is None:
            stats = rollup[bucket] = [0, 0.0]
            order.append(bucket)
        stats[0] += 1
        if span["end"] is not None:
            duration = _as_float(span["end"]) - _as_float(span["start"])
            stats[1] += duration
            closed.append((duration, span))
    sections = []
    if order:
        rows = [[span_type, outcome, rollup[(span_type, outcome)][0],
                 f"{rollup[(span_type, outcome)][1]:.6g}"]
                for span_type, outcome in order]
        sections.append("spans\n" + render_table(
            ["span", "outcome", "count", "total_duration"], rows))
    if closed:
        closed.sort(key=lambda item: -item[0])
        rows = [[span["subject"], span["outcome"], f"{duration:.6g}",
                 span["attrs"].get("attempts", ""),
                 span["attrs"].get("retries", "")]
                for duration, span in closed[:top]]
        sections.append(f"slowest {min(top, len(closed))} closed spans\n"
                        + render_table(
                            ["subject", "outcome", "duration",
                             "attempts", "retries"], rows))
    return sections


def render_stream(text: str, width: int = 72, top: int = 15,
                  grep: Optional[str] = None) -> str:
    data = load_stream(text)
    sections: List[str] = []

    metrics = data["metrics"]
    if grep:
        metrics = [(source, record) for source, record in metrics
                   if grep in _metric_label(record, source)]
    if metrics:
        sections.append(f"metrics (top {top} by magnitude)\n" + render_table(
            ["metric", "kind", "value"], metric_rows(metrics, top)))

    labels = data["series_order"]
    if grep:
        labels = [label for label in labels if grep in label]
    lines = []
    for label in labels:
        rows = data["series"][label]
        values = [value for _time, value in rows]
        strip = render_timeline(rows, width)
        lines.append(f"{label}  [{min(values):.6g} .. {max(values):.6g}] "
                     f"n={len(rows)}")
        lines.append(f"  |{strip}|")
    if lines:
        header = f"timelines ({len(labels)} series, width {width})"
        if data["sources"]:
            header += f", {data['sources']} merged sources"
        sections.append(header + "\n" + "\n".join(lines))

    if not grep:
        sections.extend(span_sections(data["spans"], top))

    if not sections:
        return "no matching telemetry records\n"
    return "\n\n".join(sections) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("path", type=pathlib.Path,
                        help="telemetry JSONL file (sim or wall stream; "
                             "merged sharded streams understood)")
    parser.add_argument("--width", type=int, default=72,
                        help="timeline width in characters (default 72)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the metric / slowest-span tables "
                             "(default 15)")
    parser.add_argument("--grep", metavar="SUBSTR",
                        help="only metrics/series whose rendered name "
                             "contains SUBSTR (spans are elided)")
    args = parser.parse_args(argv)
    if args.width < 8:
        parser.error(f"--width must be >= 8, got {args.width}")
    if args.top < 1:
        parser.error(f"--top must be >= 1, got {args.top}")
    sys.stdout.write(render_stream(args.path.read_text(), width=args.width,
                                   top=args.top, grep=args.grep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
