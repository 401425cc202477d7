"""Receiver-side duplicate detection.

An ACK can be lost even when the data frame it acknowledges was
delivered; the sender then retransmits (Retry bit set) and the receiver
would hand the same MSDU up twice.  Per the standard, receivers keep a
per-transmitter cache of the last seen (sequence, fragment) tuple and
discard retries that match.

We keep a small bounded history per transmitter rather than just the
last tuple, which also absorbs reordering introduced by fragmentation
retries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

from .addresses import MacAddress


class DuplicateCache:
    """Tracks recently seen (transmitter, sequence, fragment) tuples."""

    def __init__(self, history_per_sender: int = 8,
                 max_senders: int = 1024):
        if history_per_sender < 1:
            raise ValueError("history_per_sender must be >= 1")
        self._history = history_per_sender
        self._max_senders = max_senders
        self._caches: "OrderedDict[int, OrderedDict[Tuple[int, int], None]]" = \
            OrderedDict()
        self.duplicates_dropped = 0

    def is_duplicate(self, transmitter: MacAddress, sequence: int,
                     fragment: int, retry: bool) -> bool:
        """Record the tuple and report whether it is a duplicate.

        Only frames with the Retry bit may be classified as duplicates —
        a repeated tuple on a fresh (non-retry) frame means the sender's
        counter wrapped, which is legitimate traffic.
        """
        sender = transmitter.value
        cache = self._caches.get(sender)
        if cache is None:
            cache = OrderedDict()
            self._caches[sender] = cache
            if len(self._caches) > self._max_senders:
                self._caches.popitem(last=False)
        key = (sequence, fragment)
        duplicate = retry and key in cache
        if duplicate:
            self.duplicates_dropped += 1
        else:
            cache[key] = None
            cache.move_to_end(key)
            if len(cache) > self._history:
                cache.popitem(last=False)
        # Keep the sender LRU fresh.
        self._caches.move_to_end(sender)
        return duplicate

    def forget(self, transmitter: MacAddress) -> None:
        """Drop state for a sender (station left the BSS)."""
        self._caches.pop(transmitter.value, None)
