"""Statistics primitives used across the simulator.

Three kinds of measurement recur in wireless evaluation:

* **Counters** — frames sent, collisions, retries.
* **Sample statistics** — per-packet delay, jitter: mean/percentiles and
  confidence intervals over independent samples.
* **Time-weighted statistics** — queue occupancy, medium busy fraction:
  values that persist over intervals, where the mean must weight each
  value by how long it was held.

All three are implemented here, dependency-free, with Welford's online
algorithm for numerically-stable variance.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


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
    """Online mean/variance/min/max plus retained samples for percentiles.

    Welford's algorithm keeps the running moments stable; raw samples are
    retained (optionally capped) so percentiles and confidence intervals
    can be computed exactly for the sample sizes typical of a simulation
    run.
    """

    def __init__(self, keep_samples: bool = True,
                 max_samples: Optional[int] = None):
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep = keep_samples
        self._max_samples = max_samples
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
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
    def variance(self) -> float:
        """Unbiased sample variance (NaN until two samples exist)."""
        if self._count < 2:
            return math.nan
        return self._m2 / (self._count - 1)

    @property
    def stdev(self) -> float:
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

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

    def confidence_interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation CI for the mean (fine for n >= ~30)."""
        if self._count < 2:
            return (math.nan, math.nan)
        z = _z_value(confidence)
        half = z * self.stdev / math.sqrt(self._count)
        return (self._mean - half, self._mean + half)


def _z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for common confidence levels."""
    table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    if confidence in table:
        return table[confidence]
    # Fall back to an Acklam-style rational approximation of the probit.
    p = 1.0 - (1.0 - confidence) / 2.0
    if not 0.0 < p < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    # Beasley-Springer-Moro approximation.
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


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


def jain_fairness(values: List[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair."""
    if not values:
        return math.nan
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0.0:
        return math.nan
    return (total * total) / (len(values) * squares)
