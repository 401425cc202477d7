"""Structured event tracing.

Every protocol entity can record what it did and when.  Traces are the
ground truth for debugging MAC interleavings ("who held the medium at
t=1.2034?") and they back several tests that assert on protocol event
*ordering* rather than only on aggregate counters.

A :class:`TraceLog` is a bounded, filterable, in-memory collection of
:class:`TraceRecord` entries.  It is intentionally simple — no file I/O
in the hot path; callers can dump to text after the run.

Performance contract: when tracing is disabled, or an event type is
filtered out by :meth:`TraceLog.enable_only`, recording must not
allocate.  :meth:`TraceLog.record` constructs the :class:`TraceRecord`
lazily (only once the event passes the enable mask), and hot call sites
can pre-check :meth:`TraceLog.wants` to skip even building the keyword
detail dict.  Retention uses ``collections.deque(maxlen=...)`` so
eviction at capacity is O(1) per record instead of a slice-delete.

A :class:`TraceDigest` is the sink that keeps nothing: it hashes every
record's :func:`render` line into a running SHA-1, so a whole run's
trace can be pinned (``tests/fixtures/pins.json``) without holding it.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, FrozenSet, Iterable,
                    Iterator, List, Optional, Tuple)

#: Records between two :attr:`TraceDigest.checkpoints`.
CHECKPOINT_EVERY = 4096


def render(time: float, source: str, event: str,
           detail: Dict[str, Any]) -> str:
    """One record as a repr-exact line: the golden-trace format of
    ``tools/capture_golden.py`` and the line a :class:`TraceDigest`
    hashes."""
    return f"{time!r} {source} {event} " + " ".join(
        f"{key}={value!r}" for key, value in sorted(detail.items()))


@dataclass(frozen=True)
class TraceRecord:
    """One traced protocol event."""

    time: float
    source: str
    event: str
    detail: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        """Render as a single human-readable line."""
        parts = [f"{self.time * 1e6:12.3f}us", self.source, self.event]
        if self.detail:
            kv = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
            parts.append(kv)
        return "  ".join(parts)


class TraceLog:
    """Bounded in-memory trace collector.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are discarded FIFO.
        ``None`` means unbounded (use in tests, not long runs).
    enabled:
        Tracing can be disabled wholesale for performance-sensitive
        benchmark runs; :meth:`record` then becomes a cheap no-op.
    """

    __slots__ = ("_records", "_dropped", "enabled", "_event_mask")

    def __init__(self, capacity: Optional[int] = 100_000, enabled: bool = True):
        self._records: Deque[TraceRecord] = deque(maxlen=capacity)
        self._dropped = 0
        self.enabled = enabled
        #: ``None`` means every event type is recorded; otherwise only
        #: event names in the mask are kept.
        self._event_mask: Optional[FrozenSet[str]] = None

    @property
    def capacity(self) -> Optional[int]:
        """Retention bound; the deque's ``maxlen`` is the single source
        of truth."""
        return self._records.maxlen

    # --- enable mask -------------------------------------------------------

    def enable_only(self, *events: str) -> None:
        """Record only the named event types (per-event-type enable mask)."""
        self._event_mask = frozenset(events)

    def enable_all_events(self) -> None:
        """Drop the event mask: record every event type again."""
        self._event_mask = None

    @property
    def event_mask(self) -> Optional[FrozenSet[str]]:
        return self._event_mask

    def wants(self, event: str) -> bool:
        """Cheap hot-path pre-check: would :meth:`record` keep ``event``?

        Call sites with expensive detail kwargs should guard on this so a
        disabled or filtered log costs neither the detail dict nor the
        record allocation.
        """
        if not self.enabled:
            return False
        mask = self._event_mask
        return mask is None or event in mask

    # --- recording ---------------------------------------------------------

    def record(self, time: float, source: str, event: str, **detail: Any) -> None:
        """Append a trace record (no-op when disabled or filtered)."""
        if not self.enabled:
            return
        mask = self._event_mask
        if mask is not None and event not in mask:
            return
        records = self._records
        if records.maxlen is not None and len(records) == records.maxlen:
            self._dropped += 1
        records.append(TraceRecord(time, source, event, detail))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def dropped(self) -> int:
        """Records discarded due to the capacity bound."""
        return self._dropped

    def clear(self) -> None:
        self._records.clear()

    def select(self, source: Optional[str] = None, event: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None
               ) -> List[TraceRecord]:
        """Filter records by source and/or event name and/or a predicate."""
        result = []
        for record in self._records:
            if source is not None and record.source != source:
                continue
            if event is not None and record.event != event:
                continue
            if predicate is not None and not predicate(record):
                continue
            result.append(record)
        return result

    def format(self, limit: Optional[int] = None) -> str:
        """Render the (tail of the) trace as text."""
        records: Iterable[TraceRecord] = self._records
        if limit is not None:
            records = list(self._records)[-limit:]
        return "\n".join(record.format() for record in records)


class TraceDigest:
    """A trace sink that keeps no records, only their running SHA-1.

    It takes a :class:`TraceLog`'s place as a simulator's ``trace`` and
    records every event type.  Each record's :func:`render` line plus a
    newline goes into the hash, so a lone simulator's digest is the
    SHA-1 of its ``capture_golden`` trace file.  Every
    :data:`CHECKPOINT_EVERY` records it appends ``(records so far,
    sim-time, digest so far)`` to :attr:`checkpoints`: two runs whose
    digests differ first differ between the last checkpoint they share
    and the next one.
    """

    __slots__ = ("_sha1", "records", "checkpoints", "enabled")

    def __init__(self) -> None:
        self.enabled = True
        self._sha1 = hashlib.sha1()
        self.records = 0
        self.checkpoints: List[Tuple[int, float, str]] = []

    def wants(self, event: str) -> bool:
        return True

    def record(self, time: float, source: str, event: str,
               **detail: Any) -> None:
        self._sha1.update(
            (render(time, source, event, detail) + "\n").encode())
        self.records += 1
        if not self.records % CHECKPOINT_EVERY:
            self.checkpoints.append(
                (self.records, time, self._sha1.hexdigest()))

    def hexdigest(self) -> str:
        return self._sha1.hexdigest()
