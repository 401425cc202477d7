"""SINR accounting and the capture model.

During a frame reception, other overlapping transmissions contribute
interference.  :class:`SinrTracker` integrates interference *energy*
over the reception so the final SINR reflects partial overlaps — a
collision that clips only the last 5% of a frame is far less damaging
than a full overlap, and the integration captures that.

:class:`CaptureModel` decides whether a receiver already locked onto a
frame may abandon it for a sufficiently stronger late arrival
(physical-layer capture), or whether overlap always corrupts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.units import linear_to_db

_INF = math.inf
_log10 = math.log10


class SinrTracker:
    """Integrates interference energy across one frame reception."""

    __slots__ = ("signal_watts", "noise_watts", "_start", "_last_time",
                 "_current_interference", "_energy")

    def __init__(self, signal_watts: float, noise_watts: float, start: float,
                 interference_watts: float = 0.0):
        if signal_watts < 0 or noise_watts < 0:
            raise ValueError("powers must be non-negative")
        self.signal_watts = signal_watts
        self.noise_watts = noise_watts
        self._start = start
        self._last_time = start
        # Passing the initial interference here is equivalent to an
        # immediate set_interference(start, x) — zero elapsed time, so
        # no energy accrues — but saves a call on the lock fast path.
        self._current_interference = interference_watts
        self._energy = 0.0  # watt-seconds of interference so far

    def set_interference(self, now: float, power_watts: float) -> None:
        """Record that aggregate interference changed to ``power_watts``."""
        if now < self._last_time:
            raise ValueError("time went backwards in SinrTracker")
        self._energy += self._current_interference * (now - self._last_time)
        self._current_interference = power_watts
        self._last_time = now

    def sinr_db(self, end: float) -> float:
        """Final SINR over the whole reception ending at ``end``."""
        if end < self._last_time:
            raise ValueError("reception cannot end before last update")
        total_energy = self._energy + self._current_interference * (end - self._last_time)
        duration = end - self._start
        mean_interference = total_energy / duration if duration > 0 else \
            self._current_interference
        denominator = self.noise_watts + mean_interference
        if denominator <= 0.0:
            return linear_to_db(float("inf"))
        # linear_to_db inlined (one call per decoded frame per receiver).
        ratio = self.signal_watts / denominator
        if ratio <= 0.0:
            return -_INF
        return 10.0 * _log10(ratio)


@dataclass(frozen=True)
class CaptureModel:
    """Physical-layer capture configuration.

    When ``enabled``, a receiver locked onto frame A will switch to a
    later-arriving frame B if B is at least ``threshold_db`` stronger
    than A (A is then counted as interference for B).  When disabled,
    the receiver stays locked and B only contributes interference —
    the classic "collision = both lost" model.
    """

    enabled: bool = True
    threshold_db: float = 10.0

    def should_capture(self, locked_power_watts: float,
                       new_power_watts: float) -> bool:
        if not self.enabled:
            return False
        if locked_power_watts <= 0.0:
            return True
        ratio_db = linear_to_db(new_power_watts / locked_power_watts)
        return ratio_db >= self.threshold_db
