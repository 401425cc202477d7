"""Frame-lifecycle span tracing.

Where :mod:`repro.telemetry.metrics` answers "how many / how deep",
spans answer "what happened to *this* frame": one :class:`Span` covers
an MSDU's whole life at its sender — enqueue, the contention wait,
every transmit attempt and retry, and the terminal delivered/dropped
edge — with repr-exact sim-time stamps, so a tail-latency outlier can
be traced to the exact retry chain that produced it.  An MSDU that a
crashed MAC discarded (``DcfMac.crash()`` notifies nobody) never sees a
terminal edge: its span stays open and is exported with outcome
``open`` at the horizon, like every frame still in flight then.

The collection side follows the :class:`~repro.core.trace.TraceLog`
philosophy: a :class:`SpanLog` is a bounded ring buffer
(``deque(maxlen=...)``) with a per-span-type enable mask, and
:meth:`SpanLog.wants` lets hot call sites skip even building the
record.  The emission side rides the one-slot ``_frame_probe`` hook on
:class:`~repro.mac.dcf.DcfMac` — a single ``is not None`` test per
lifecycle edge, nothing when telemetry is off.
"""

from __future__ import annotations

from collections import deque
from typing import (Any, Callable, Deque, Dict, FrozenSet, Iterator, List,
                    Optional, Tuple)

__all__ = ["Span", "SpanLog", "FrameSpanTracker",
           "FRAME_ENQUEUE", "FRAME_TX", "FRAME_RETRY", "FRAME_DELIVERED",
           "FRAME_DROPPED", "FRAME_RX"]

#: Frame-lifecycle event names emitted by the DcfMac hook.
FRAME_ENQUEUE = "enqueue"
FRAME_TX = "tx"
FRAME_RETRY = "retry"
FRAME_DELIVERED = "delivered"
FRAME_DROPPED = "dropped"
FRAME_RX = "rx"


class Span:
    """One closed (or still-open) lifecycle span."""

    __slots__ = ("span_type", "subject", "start", "end", "outcome",
                 "attrs")

    def __init__(self, span_type: str, subject: str, start: float,
                 end: Optional[float] = None, outcome: str = "open",
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_type = span_type
        self.subject = subject
        self.start = start
        self.end = end
        self.outcome = outcome
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.span_type} {self.subject} "
                f"[{self.start!r}..{self.end!r}] {self.outcome}>")


class SpanLog:
    """Bounded ring buffer of spans with a per-span-type enable mask."""

    def __init__(self, capacity: Optional[int] = 65_536,
                 enabled: bool = True):
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self.enabled = enabled
        self._type_mask: Optional[FrozenSet[str]] = None
        self._dropped = 0

    @property
    def capacity(self) -> Optional[int]:
        return self._spans.maxlen

    @property
    def dropped(self) -> int:
        """Spans discarded at the capacity bound."""
        return self._dropped

    # --- enable mask -------------------------------------------------------

    def enable_only(self, *span_types: str) -> None:
        """Record only the named span types."""
        self._type_mask = frozenset(span_types)

    def enable_all(self) -> None:
        self._type_mask = None

    def wants(self, span_type: str) -> bool:
        """Hot-path pre-check: would :meth:`record` keep this type?"""
        if not self.enabled:
            return False
        mask = self._type_mask
        return mask is None or span_type in mask

    # --- recording ---------------------------------------------------------

    def record(self, span: Span) -> None:
        """Append a span (callers should have checked :meth:`wants`)."""
        spans = self._spans
        if spans.maxlen is not None and len(spans) == spans.maxlen:
            self._dropped += 1
        spans.append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def select(self, span_type: Optional[str] = None,
               outcome: Optional[str] = None) -> List[Span]:
        out = []
        for span in self._spans:
            if span_type is not None and span.span_type != span_type:
                continue
            if outcome is not None and span.outcome != outcome:
                continue
            out.append(span)
        return out

    def clear(self) -> None:
        self._spans.clear()


class FrameSpanTracker:
    """Builds frame-lifecycle spans from the DcfMac ``_frame_probe`` hook.

    One tracker serves any number of MACs: :meth:`attach` installs a
    bound dispatcher as the MAC's probe and remembers how to detach it.
    Open spans are keyed by MSDU identity (``id(msdu)`` — MSDUs are
    unhashable dataclasses, and an MSDU is in flight at exactly one
    MAC), so enqueue, the transmit attempts, retries and the terminal
    edge all land on the same span.  The tracker holds the MSDU beside
    its open span: ``DcfMac.crash()`` drops the in-flight MSDU and the
    queue without a ``dropped`` edge, and were the object freed a later
    MSDU could reuse its id and overwrite the orphaned span — the
    export would then depend on the allocator.  Spans orphaned by a
    crash stay open and flush as ``open`` at :meth:`finish`.

    Per-span attrs: ``first_tx`` (sim time of the first on-air
    attempt; None if the frame died queued), ``attempts`` (data
    transmissions), ``retries`` (response timeouts that led to a
    retry).  Receiver-side ``rx`` events don't open spans — delivery
    is the sender's span outcome — but are counted per MAC so the
    export still shows who actually received.
    """

    def __init__(self, spans: SpanLog):
        self.spans = spans
        self._open: Dict[int, Tuple[Any, Span]] = {}
        self._detach: List[Callable[[], None]] = []
        self.rx_frames: Dict[str, int] = {}

    def attach(self, mac: Any, name: Optional[str] = None) -> None:
        """Install this tracker as ``mac``'s frame probe."""
        label = name if name is not None else str(mac.address)
        sim = mac.sim

        def _probe(event: str, msdu: Any, _label: str = label,
                   _sim: Any = sim) -> None:
            self._dispatch(event, msdu, _label, _sim._now)

        mac._frame_probe = _probe

        def _undo(_mac: Any = mac) -> None:
            _mac._frame_probe = None

        self._detach.append(_undo)

    def detach_all(self) -> None:
        for undo in self._detach:
            undo()
        self._detach.clear()

    # --- dispatch ----------------------------------------------------------

    def _dispatch(self, event: str, msdu: Any, label: str,
                  now: float) -> None:
        if event is FRAME_RX or event == FRAME_RX:
            self.rx_frames[label] = self.rx_frames.get(label, 0) + 1
            return
        if not self.spans.wants("frame"):
            return
        if event == FRAME_ENQUEUE:
            self._open[id(msdu)] = (msdu, Span("frame", label, now, attrs={
                "first_tx": None, "attempts": 0, "retries": 0}))
            return
        held = self._open.get(id(msdu))
        if held is None:
            return  # enqueued before the tracker attached, or masked
        span = held[1]
        if event == FRAME_TX:
            attrs = span.attrs
            if attrs["first_tx"] is None:
                attrs["first_tx"] = now
            attrs["attempts"] += 1
        elif event == FRAME_RETRY:
            span.attrs["retries"] += 1
        elif event == FRAME_DELIVERED or event == FRAME_DROPPED:
            del self._open[id(msdu)]
            span.end = now
            span.outcome = event
            self.spans.record(span)

    # --- wind-down ---------------------------------------------------------

    def finish(self, now: float) -> None:
        """Close still-open spans at the horizon (outcome ``open``).

        Open spans flush in their enqueue order — the dict preserves
        insertion order and enqueue times are monotone per MAC, so the
        flush order is deterministic.
        """
        if not self._open:
            return
        for _msdu, span in self._open.values():
            span.end = now
            span.outcome = "open"
            self.spans.record(span)
        self._open.clear()

    def open_count(self) -> int:
        return len(self._open)
