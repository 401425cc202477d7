"""ASCII table rendering for benchmark output.

Every benchmark regenerates a table or figure from the source text;
this module renders them uniformly so a write-up can quote the
output verbatim.  Numeric cells can carry per-column formatting.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def format_value(value: Any, spec: Optional[str]) -> str:
    if value is None:
        return "-"
    if spec is not None and isinstance(value, (int, float)):
        return format(value, spec)
    return str(value)


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[Any]],
                 formats: Optional[Sequence[Optional[str]]] = None) -> str:
    """Render a boxed ASCII table.

    ``formats`` optionally gives a format spec per column
    (e.g. ``".1f"``); None columns use ``str``.
    """
    if formats is None:
        formats = [None] * len(headers)
    if len(formats) != len(headers):
        raise ValueError("formats must match headers")
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}")
        rendered_rows.append([format_value(cell, spec)
                              for cell, spec in zip(row, formats)])
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cell.ljust(width)
                                 for cell, width in zip(cells, widths)) + " |"

    separator = "+-" + "-+-".join("-" * width for width in widths) + "-+"
    parts = [f"== {title} ==", separator, line(headers), separator]
    for row in rendered_rows:
        parts.append(line(row))
    parts.append(separator)
    return "\n".join(parts)


def render_series(title: str, x_label: str, y_labels: Sequence[str],
                  points: Sequence[Sequence[Any]],
                  formats: Optional[Sequence[Optional[str]]] = None) -> str:
    """Render a figure's data series as a table (x column + y columns)."""
    headers = [x_label, *y_labels]
    return render_table(title, headers, points, formats)
