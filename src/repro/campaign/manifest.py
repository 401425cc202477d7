"""The crash-safe resumable campaign manifest: an append-only journal.

One file per campaign, one JSON document per line — a header, then one
record per finished job, keyed by content-addressed job sha1::

    {"campaign": "hidden_terminal", "format": 2, "grid_sha1": "…"}
    {"key": "<job sha1>", "row": {…}, "status": "done"}
    {"error": "…", "key": "<job sha1>", "status": "failed"}

The first record of a new campaign creates the header with the atomic-
rename recipe (write ``<path>.tmp``, fsync, ``os.replace``); every
record is then one appended line, flushed and fsynced before
``record_done``/``record_failed`` returns, at the same cost whether the
journal holds ten lines or a million.  A retried job appends again;
replay keeps the last record per key.

A campaign killed at *any* instant therefore leaves whole lines plus at
most one torn final line.  A final line without its newline never had
its fsync return, so it was never acknowledged to the executor:
``Manifest.open`` drops it and truncates the file back to the line
boundary, and a resume picks up exactly the jobs whose completion
reached the disk.  Anything else that does not parse — a terminated
garbage line, a missing header, the whole-file manifest of an earlier
format — raises an error naming the path and line.

The manifest is the campaign's source of truth; the JSONL/CSV result
store is a *projection* of it (rewritten in grid order on every run),
which is what makes "interrupted + resumed" byte-identical to
"uninterrupted": both stores are the same deterministic function of
the same manifest rows.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional

from .spec import SpecError

__all__ = ["Manifest", "MANIFEST_FORMAT"]

MANIFEST_FORMAT = 2

DONE = "done"
FAILED = "failed"


def _write_synced(path: pathlib.Path, mode: str, document: Any) -> None:
    """Write one journal line; return only once it is on disk."""
    with open(path, mode) as handle:
        handle.write(json.dumps(document, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


class Manifest:
    """Persistent done/failed ledger for one campaign grid."""

    def __init__(self, path: pathlib.Path, campaign: str, grid_sha1: str):
        self.path = pathlib.Path(path)
        self.campaign = campaign
        self.grid_sha1 = grid_sha1
        self.jobs: Dict[str, Dict[str, Any]] = {}
        #: Whether the file at ``path`` already starts with this
        #: journal's header; until then the next record replaces it.
        self._started = False

    # --- construction -----------------------------------------------------

    @classmethod
    def open(cls, path: pathlib.Path, campaign: str, grid_sha1: str,
             fresh: bool = False) -> "Manifest":
        """Replay the journal at ``path``, or start an empty one.

        ``fresh=True`` discards any previous state.  A manifest written
        for a *different* grid (edited spec: membership or order
        changed) raises instead of silently mixing two campaigns —
        content-addressed job keys make stale rows look deceptively
        valid otherwise.
        """
        manifest = cls(path, campaign, grid_sha1)
        if fresh or not manifest.path.exists():
            return manifest
        data = manifest.path.read_bytes()
        *lines, torn = data.split(b"\n")

        def bad(number: int, why: str) -> SpecError:
            return SpecError("(manifest)", f"{path} line {number} {why}; "
                             f"remove it or rerun with fresh=True")

        def parse(number: int, text: bytes) -> Any:
            try:
                return json.loads(text)
            except ValueError as exc:
                raise bad(number, f"is not valid JSON ({exc})")

        if not lines:
            raise bad(1, "is missing: no journal header")
        # An earlier format is one indented document, not a journal:
        # read it whole so the error can name its format.
        header = parse(1, data if lines[0] == b"{" else lines[0])
        found = header.get("format") if isinstance(header, dict) else None
        if found != MANIFEST_FORMAT:
            raise SpecError("(manifest)",
                            f"{path} has format {found!r}, "
                            f"this build reads {MANIFEST_FORMAT}")
        if header.get("grid_sha1") != grid_sha1:
            raise SpecError("(manifest)",
                            f"{path} was written for a different grid "
                            f"({header.get('grid_sha1')!r:.14} vs "
                            f"{grid_sha1!r:.14}): the spec changed since "
                            f"that run; rerun with fresh=True to discard "
                            f"the old state")
        for number, line in enumerate(lines[1:], 2):
            record = parse(number, line)
            if not isinstance(record, dict) \
                    or not isinstance(record.get("key"), str) \
                    or record.get("status") not in (DONE, FAILED):
                raise bad(number, "is not a job record")
            manifest.jobs[record.pop("key")] = record
        if torn:
            os.truncate(manifest.path, len(data) - len(torn))
        manifest._started = True
        return manifest

    # --- queries ----------------------------------------------------------

    def status(self, key: str) -> Optional[str]:
        entry = self.jobs.get(key)
        return entry["status"] if entry else None

    def is_done(self, key: str) -> bool:
        return self.status(key) == DONE

    def row(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self.jobs.get(key)
        if entry and entry["status"] == DONE:
            return entry["row"]
        return None

    def counts(self) -> Dict[str, int]:
        out = {DONE: 0, FAILED: 0}
        for entry in self.jobs.values():
            out[entry["status"]] = out.get(entry["status"], 0) + 1
        return out

    # --- updates ----------------------------------------------------------

    def record_done(self, key: str, row: Dict[str, Any]) -> None:
        self._append(key, {"status": DONE, "row": row})

    def record_failed(self, key: str, error: str) -> None:
        self._append(key, {"status": FAILED, "error": error})

    def _append(self, key: str, entry: Dict[str, Any]) -> None:
        if not self._started:
            # Write-then-rename in the target's directory (same
            # filesystem): the header is there whole or not at all.
            tmp = self.path.with_name(self.path.name + ".tmp")
            _write_synced(tmp, "w", {"format": MANIFEST_FORMAT,
                                     "campaign": self.campaign,
                                     "grid_sha1": self.grid_sha1})
            os.replace(tmp, self.path)
            self._started = True
        _write_synced(self.path, "a", {"key": key, **entry})
        self.jobs[key] = entry
