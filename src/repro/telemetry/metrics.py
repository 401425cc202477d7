"""Metrics primitives for the unified telemetry layer.

A :class:`MetricsRegistry` is a flat namespace of counters, gauges and
histograms keyed by ``(subsystem, name, labels)``.  On top of it a
:class:`PeriodicSampler` — driven by the kernel's own event heap, so
its timestamps are *simulation* time — polls registered callables every
sampling interval and appends ``(sim_time, value)`` rows to bounded
per-series time series.

Two streams, one registry
-------------------------

Every metric is either **sim-time** (the default) or **wall-clock**
(``wall=True``).  Sim-time metrics are pure functions of the seed and
the scenario, so two runs of the same seed produce byte-identical
exports — they are part of the determinism contract and CI
byte-compares them.  Wall-clock metrics (worker busy time, coordinator
idle time) are machine noise by definition; they live in a separate,
clearly-marked stream that :mod:`tools.capture_golden` and the
regression gates never look at.

Performance contract
--------------------

The :class:`~repro.core.trace.TraceLog` philosophy applies: a disabled
registry must cost nothing.  ``MetricsRegistry(enabled=False)`` hands
out shared null metrics whose mutators are no-ops, and
``PeriodicSampler.install`` refuses to arm, so a simulator built in
benchmark posture pays neither sampling events nor record allocation.
Enabled-path costs are bounded: counters are one dict-free attribute
add, and samples append to a ``deque(maxlen=...)`` so retention is O(1).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.engine import PeriodicTask, Simulator
from ..core.errors import ConfigurationError

#: A fully-resolved metric key: ``(subsystem, name, (("label", "v"), ...))``.
MetricKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]


def make_key(subsystem: str, name: str,
             labels: Dict[str, Any]) -> MetricKey:
    """Canonicalize a metric key (labels sorted, values stringified)."""
    return (subsystem, name,
            tuple(sorted((k, str(v)) for k, v in labels.items())))


def format_key(key: MetricKey) -> str:
    """Human-readable ``subsystem/name{label=value}`` rendering."""
    subsystem, name, labels = key
    base = f"{subsystem}/{name}"
    if labels:
        inner = ",".join(f"{k}={v}" for k, v in labels)
        return f"{base}{{{inner}}}"
    return base


class CounterMetric:
    """A monotonically increasing count (frames, retries, rounds)."""

    __slots__ = ("key", "value", "wall")

    kind = "counter"

    def __init__(self, key: MetricKey, wall: bool = False):
        self.key = key
        self.value = 0
        self.wall = wall

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class GaugeMetric:
    """A point-in-time value (queue depth, heap depth, clock skew)."""

    __slots__ = ("key", "value", "wall")

    kind = "gauge"

    def __init__(self, key: MetricKey, wall: bool = False):
        self.key = key
        self.value = 0.0
        self.wall = wall

    def set(self, value: float) -> None:
        self.value = value


class HistogramMetric:
    """Fixed-bound bucketed distribution (fan-out widths, batch sizes).

    ``bounds`` are inclusive upper bounds; one implicit +inf bucket
    catches the overflow.  Deterministic by construction: only integer
    bucket counts and an exact running sum (float adds happen in
    observation order, which is event order, which is seeded).
    """

    __slots__ = ("key", "bounds", "counts", "total", "sum", "wall")

    kind = "histogram"

    DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                      500.0, 1000.0)

    def __init__(self, key: MetricKey,
                 bounds: Optional[Sequence[float]] = None,
                 wall: bool = False):
        self.key = key
        self.bounds: Tuple[float, ...] = tuple(
            bounds if bounds is not None else self.DEFAULT_BOUNDS)
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(
                f"histogram bounds must be sorted: {self.bounds}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.wall = wall

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class _NullMetric:
    """Shared no-op stand-in handed out by a disabled registry.

    Mutators accept the live metrics' signatures and do nothing, so
    instrumented call sites need no ``if enabled`` guard of their own —
    the enable check happened once, at handle-creation time.
    """

    __slots__ = ()

    kind = "null"
    value = 0
    wall = False

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """The ``(subsystem, name, labels)``-keyed metric namespace.

    Handles are memoized: asking twice for the same key returns the
    same object, so probes in different subsystems can share a series.
    Creation order is remembered and every exporter iterates it, which
    keeps exports byte-stable without a sort over heterogeneous keys.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[MetricKey, Any] = {}
        self._order: List[MetricKey] = []
        # Per-series sample rows, appended by PeriodicSampler.
        self._series: Dict[MetricKey, Deque[Tuple[float, float]]] = {}
        self._series_order: List[MetricKey] = []
        self._series_wall: Dict[MetricKey, bool] = {}
        self._series_capacity: Optional[int] = 100_000
        self.samples_dropped = 0

    # --- handles -----------------------------------------------------------

    def _get(self, factory: Callable[..., Any], subsystem: str, name: str,
             wall: bool, labels: Dict[str, Any], **kwargs: Any) -> Any:
        if not self.enabled:
            return NULL_METRIC
        key = make_key(subsystem, name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(key, wall=wall, **kwargs)
            self._metrics[key] = metric
            self._order.append(key)
        return metric

    def counter(self, subsystem: str, name: str, wall: bool = False,
                **labels: Any) -> CounterMetric:
        return self._get(CounterMetric, subsystem, name, wall, labels)

    def gauge(self, subsystem: str, name: str, wall: bool = False,
              **labels: Any) -> GaugeMetric:
        return self._get(GaugeMetric, subsystem, name, wall, labels)

    def histogram(self, subsystem: str, name: str,
                  bounds: Optional[Sequence[float]] = None,
                  wall: bool = False, **labels: Any) -> HistogramMetric:
        return self._get(HistogramMetric, subsystem, name, wall, labels,
                         bounds=bounds)

    # --- time series -------------------------------------------------------

    def set_series_capacity(self, capacity: Optional[int]) -> None:
        """Retention bound for *future* series (None = unbounded)."""
        self._series_capacity = capacity

    def record_sample(self, key: MetricKey, time: float, value: float,
                      wall: bool = False) -> None:
        rows = self._series.get(key)
        if rows is None:
            rows = deque(maxlen=self._series_capacity)
            self._series[key] = rows
            self._series_order.append(key)
            self._series_wall[key] = wall
        if rows.maxlen is not None and len(rows) == rows.maxlen:
            self.samples_dropped += 1
        rows.append((time, value))

    def series(self, key: MetricKey) -> List[Tuple[float, float]]:
        """The sampled rows for one series key (copy; empty if none)."""
        return list(self._series.get(key, ()))

    def series_keys(self, wall: Optional[bool] = None) -> List[MetricKey]:
        keys = list(self._series_order)
        if wall is None:
            return keys
        return [key for key in keys if self._series_wall[key] is wall]

    # --- introspection -----------------------------------------------------

    def metrics(self, wall: Optional[bool] = None) -> List[Any]:
        """Every live metric in creation order (optionally one stream)."""
        out = []
        for key in self._order:
            metric = self._metrics[key]
            if wall is None or metric.wall is wall:
                out.append(metric)
        return out

    def get(self, subsystem: str, name: str, **labels: Any) -> Optional[Any]:
        return self._metrics.get(make_key(subsystem, name, labels))

    def __len__(self) -> int:
        return len(self._metrics)


class PeriodicSampler:
    """Kernel-driven sampling of gauges/callbacks into sim-time series.

    Probes register ``(key, fn)`` pairs; every ``interval`` seconds of
    *simulation* time the sampler appends one ``(sim_time, fn())`` row
    per probe, in registration order (a deterministic order, so the
    exported stream is byte-stable).  The sampler rides an ordinary
    :class:`~repro.core.engine.PeriodicTask`, so its events interleave
    with protocol events under the kernel's monotone tie-break —
    they read state but never mutate it, draw no RNG, and therefore
    cannot perturb protocol outcomes.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry,
                 interval: float = 0.05):
        if interval <= 0:
            raise ConfigurationError(
                f"sampling interval must be > 0: {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self._probes: List[Tuple[MetricKey, Callable[[], float], bool]] = []
        self._task: Optional[PeriodicTask] = None
        self.samples_taken = 0
        self.last_sample_time: Optional[float] = None

    def add(self, subsystem: str, name: str, fn: Callable[[], float],
            wall: bool = False, **labels: Any) -> None:
        """Register a zero-argument callable to poll every interval."""
        if not self.registry.enabled:
            return
        self._probes.append((make_key(subsystem, name, labels), fn, wall))

    def install(self) -> "PeriodicSampler":
        """Arm the sampling task (no-op when the registry is disabled)."""
        if self.registry.enabled and self._task is None and self._probes:
            self._task = PeriodicTask(self.sim, self.interval, self._sample,
                                      offset=self.interval)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    @property
    def installed(self) -> bool:
        return self._task is not None

    def sample_now(self) -> None:
        """Take one sample immediately (used for the final edge).

        Skipped when the periodic task already sampled at exactly this
        instant — the horizon landing on a sampling boundary must not
        double the final row.
        """
        if self.registry.enabled and self._probes \
                and self.last_sample_time != self.sim._now:
            self._sample()

    def _sample(self) -> None:
        now = self.sim._now
        record = self.registry.record_sample
        for key, fn, wall in self._probes:
            record(key, now, fn(), wall)
        self.samples_taken += 1
        self.last_sample_time = now
