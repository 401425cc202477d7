"""The columnar campaign result store: canonical JSONL + CSV.

One row per job, in grid expansion order, serialized with the repo's
byte-comparable conventions (sorted keys, compact separators, floats
rendered via ``repr`` — the :mod:`repro.telemetry.export` recipe).  Two
runs of the same campaign on any machine with any ``--jobs`` produce
byte-identical stores; that is the CI gate.

The JSONL stream is written *incrementally in row order*: a row is
flushed the moment every earlier row is known (the pool already
yields results in input order), so a
long-running sweep can be tailed while it runs.  The CSV twin is a
projection of the same rows with a flat, deterministic column order —
the spreadsheet-facing view — written when the run finishes.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["StoreWriter", "flatten_row", "row_line", "read_store",
           "csv_text"]


def _canon(value: Any) -> Any:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def row_line(row: Dict[str, Any]) -> str:
    """One canonical JSONL line for a result row."""
    return json.dumps(_canon(row), sort_keys=True, separators=(",", ":"))


def read_store(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Parse a JSONL store back into row dicts (floats stay repr
    strings — byte-compare callers never want them re-rounded; the
    :mod:`repro.analysis.campaign` aggregators revive them)."""
    return [json.loads(line)
            for line in pathlib.Path(path).read_text().splitlines() if line]


def flatten_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """Flatten the nested ``axes``/``stats`` maps into dotted columns."""
    flat: Dict[str, Any] = {}
    for key, value in row.items():
        if isinstance(value, dict):
            for inner, item in value.items():
                flat[f"{key}.{inner}"] = item
        else:
            flat[key] = value
    return flat


#: Identity/bookkeeping columns, in the order they lead every CSV row.
_LEAD_COLUMNS = ("campaign", "index", "key", "label", "seed", "status",
                 "error")


def csv_text(rows: Iterable[Dict[str, Any]]) -> str:
    """The CSV projection: lead columns, then sorted dotted columns."""
    flat_rows = [flatten_row(_canon(row)) for row in rows]
    tail = sorted({column for row in flat_rows for column in row}
                  - set(_LEAD_COLUMNS))
    columns = [c for c in _LEAD_COLUMNS
               if any(c in row for row in flat_rows)] + tail
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in flat_rows:
        writer.writerow(["" if row.get(column) is None else row[column]
                         for column in columns])
    return buffer.getvalue()


class StoreWriter:
    """In-order streaming writer for one campaign's result store.

    ``add(index, row)`` may arrive in any completion order; rows are
    buffered and the JSONL file only ever grows by the next contiguous
    prefix.  ``close()`` writes the CSV twin and returns the rows.
    """

    def __init__(self, jsonl_path: pathlib.Path,
                 csv_path: Optional[pathlib.Path] = None):
        self.jsonl_path = pathlib.Path(jsonl_path)
        self.csv_path = pathlib.Path(csv_path) if csv_path else None
        self._pending: Dict[int, Dict[str, Any]] = {}
        self._rows: List[Dict[str, Any]] = []
        self._next = 0
        # "w": the store is a projection of the manifest, rebuilt from
        # row 0 on every run — a resumed run re-emits the already-done
        # prefix first, so the final file never depends on whether the
        # previous run got as far as writing it.
        self._handle = open(self.jsonl_path, "w")

    def add(self, index: int, row: Dict[str, Any]) -> None:
        self._pending[index] = row
        while self._next in self._pending:
            row = self._pending.pop(self._next)
            self._rows.append(row)
            self._handle.write(row_line(row) + "\n")
            self._next += 1
        self._handle.flush()

    def close(self) -> List[Dict[str, Any]]:
        if self._pending:
            dangling = sorted(self._pending)
            raise AssertionError(
                f"store closed with non-contiguous rows pending: indices "
                f"{dangling} arrived but {self._next} never did")
        self._handle.close()
        if self.csv_path is not None:
            self.csv_path.write_text(csv_text(self._rows))
        return list(self._rows)

    def abort(self) -> None:
        """Close the file handle without the completeness check (used
        when the run itself failed and partial output is expected)."""
        self._handle.close()
