"""MSDU fragmentation and reassembly.

When an MSDU exceeds the fragmentation threshold the MAC slices it into
fragments that share one sequence number and carry increasing fragment
numbers, all but the last with the More Fragments bit set (source text
§4.2).  Fragments of one MSDU are sent as a SIFS-separated burst, each
individually acknowledged.

:func:`fragment_payload` does the slicing; :class:`Reassembler` is the
receiver side, keyed by (transmitter, sequence number), tolerant of
duplicate fragments and able to time out incomplete MSDUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import FrameError
from .addresses import MacAddress
from .frames import MAX_FRAGMENTS


@dataclass(frozen=True)
class Fragment:
    """One slice of an MSDU, pre-header."""

    index: int
    more_fragments: bool
    payload: bytes


def fragment_payload(payload: bytes, threshold: int) -> List[Fragment]:
    """Slice ``payload`` into fragments of at most ``threshold`` bytes.

    A payload that fits in one fragment yields a single entry with
    ``more_fragments=False`` (the common case — callers need no special
    path for unfragmented MSDUs).
    """
    if threshold < 1:
        raise FrameError(f"fragmentation threshold must be >= 1: {threshold}")
    if not payload:
        return [Fragment(index=0, more_fragments=False, payload=b"")]
    pieces = [payload[offset:offset + threshold]
              for offset in range(0, len(payload), threshold)]
    if len(pieces) > MAX_FRAGMENTS:
        raise FrameError(
            f"payload of {len(payload)} bytes needs {len(pieces)} fragments; "
            f"the 4-bit fragment field allows at most {MAX_FRAGMENTS}")
    return [Fragment(index=i, more_fragments=(i < len(pieces) - 1),
                     payload=piece)
            for i, piece in enumerate(pieces)]


@dataclass
class _PartialMsdu:
    started_at: float
    fragments: Dict[int, bytes] = field(default_factory=dict)
    last_index: Optional[int] = None  # set when the final fragment arrives

    def complete(self) -> bool:
        if self.last_index is None:
            return False
        return all(i in self.fragments for i in range(self.last_index + 1))

    def assemble(self) -> bytes:
        assert self.last_index is not None
        return b"".join(self.fragments[i] for i in range(self.last_index + 1))


class Reassembler:
    """Receiver-side fragment reassembly with aging."""

    def __init__(self, timeout: float = 1.0):
        if timeout <= 0:
            raise FrameError(f"timeout must be positive: {timeout}")
        self._timeout = timeout
        self._partials: Dict[Tuple[MacAddress, int], _PartialMsdu] = {}
        self.timed_out = 0

    def add_fragment(self, now: float, transmitter: MacAddress,
                     sequence: int, fragment_index: int,
                     more_fragments: bool, payload: bytes
                     ) -> Optional[bytes]:
        """Feed one fragment in; returns the full MSDU when complete."""
        if self._partials:
            self._expire(now)
        if fragment_index == 0 and not more_fragments:
            return payload  # unfragmented fast path
        key = (transmitter, sequence)
        partial = self._partials.get(key)
        if partial is None:
            partial = _PartialMsdu(started_at=now)
            self._partials[key] = partial
        partial.fragments[fragment_index] = payload
        if not more_fragments:
            partial.last_index = fragment_index
        if partial.complete():
            del self._partials[key]
            return partial.assemble()
        return None

    def _expire(self, now: float) -> None:
        stale = [key for key, partial in self._partials.items()
                 if now - partial.started_at > self._timeout]
        for key in stale:
            del self._partials[key]
            self.timed_out += 1

    @property
    def pending(self) -> int:
        return len(self._partials)
