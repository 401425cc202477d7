"""Statistics primitives used across the simulator.

Three kinds of measurement recur in wireless evaluation:

* **Counters** — frames sent, collisions, retries.
* **Sample statistics** — per-packet delay, jitter: mean and percentiles
  over independent samples.
* **Time-weighted statistics** — queue occupancy, medium busy fraction:
  values that persist over intervals, where the mean must weight each
  value by how long it was held.

All three are implemented here, dependency-free, with Welford's online
update for a numerically stable mean.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class Counter:
    """A named bundle of integer counters."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def merge(self, other: "Counter") -> "Counter":
        """Add another counter's values into this one (fleet-wide
        aggregation: summing per-node mesh counters, per-BSS MAC stats).
        Returns self for chaining."""
        for name, value in other._counts.items():
            self._counts[name] = self._counts.get(name, 0) + value
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{key}={value}" for key, value in sorted(self._counts.items()))
        return f"Counter({inner})"


class SampleStat:
    """Online mean/min/max plus retained samples for percentiles.

    Welford's update keeps the running mean stable; raw samples are
    retained (optionally capped) so percentiles can be computed exactly
    for the sample sizes typical of a simulation run.
    """

    def __init__(self, keep_samples: bool = True,
                 max_samples: Optional[int] = None):
        self._count = 0
        self._mean = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep = keep_samples
        self._max_samples = max_samples
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._count += 1
        self._mean += (value - self._mean) / self._count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._keep:
            if self._max_samples is None or len(self._samples) < self._max_samples:
                self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def samples(self) -> List[float]:
        """The retained raw samples (copy; empty when not kept)."""
        return list(self._samples)

    @property
    def mean(self) -> float:
        return self._mean if self._count else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile over retained samples."""
        if not self._samples:
            return math.nan
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        position = fraction * (len(ordered) - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight


class TimeWeightedStat:
    """Mean of a piecewise-constant signal, weighted by holding time.

    Typical uses: queue length over time, fraction of time the medium is
    busy.  Call :meth:`update` whenever the value changes; call
    :meth:`finish` (or read :attr:`mean` with an explicit ``until``) at
    the end of the run.
    """

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0):
        self._value = initial_value
        self._last_time = start_time
        self._weighted_sum = 0.0
        self._elapsed = 0.0

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def update(self, time: float, value: float) -> None:
        """Record that the signal changed to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time} < {self._last_time}")
        dt = time - self._last_time
        self._weighted_sum += self._value * dt
        self._elapsed += dt
        self._value = value
        self._last_time = time

    def finish(self, time: float) -> None:
        """Close the final interval at ``time`` without changing the value."""
        self.update(time, self._value)

    @property
    def mean(self) -> float:
        if self._elapsed <= 0.0:
            return math.nan
        return self._weighted_sum / self._elapsed
