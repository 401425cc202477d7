"""Instrumentation probes for every subsystem, plus the Telemetry hub.

Each probe wires one subsystem into a
:class:`~repro.telemetry.metrics.MetricsRegistry` /
:class:`~repro.telemetry.metrics.PeriodicSampler` pair.  The common
contract: an installed probe never mutates simulation state — it reads
counters and gauges the subsystems already maintain, observes the
medium's transmissions (``Medium.observers``), or rides the one-slot
``_frame_probe`` hook.  Probes therefore cannot perturb seeded protocol
outcomes; the only observable difference in an instrumented run is the
sampler's own (read-only) events on the kernel heap.

:class:`Telemetry` bundles the whole layer behind one object — a
campaign job under ``mode.telemetry``, the benchmark's ``telemetry.*``
service metrics and the parallel executor all construct exactly this.
Telemetry off builds no hub, so there is no disabled posture here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.engine import SHAPE_COUNTS, Simulator, live_entries
from ..core.errors import ConfigurationError
from .export import summary_table, to_jsonl
from .metrics import MetricsRegistry, PeriodicSampler
from .spans import FrameSpanTracker, Span, SpanLog

__all__ = ["KernelDispatchProbe", "MediumProbe", "MacFleetProbe",
           "RadioFleetProbe", "record_fault_spans", "Telemetry"]


class KernelDispatchProbe:
    """Dispatch-by-shape counting for the kernel run loop.

    Every run loop, compiled or Python, already tallies what it
    dispatched per entry shape (handle / timer / fast) and what it
    dropped lazily (cancelled handles, superseded timer versions) into
    the simulator's :data:`~repro.core.engine.SHAPE_COUNTS` slots.  The
    probe runs nothing of its own: :meth:`install` takes a snapshot of
    those slots and :meth:`uninstall` (which :meth:`Telemetry.finish`
    calls) books what they gained since into its registry counters.  So
    an observed simulator runs on the loop an unobserved one would, and
    the counters read their totals once the probe is uninstalled.
    ``Simulator.clear()`` zeroes the slots: arm the probe after it.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry):
        self.sim = sim
        self._baseline: Optional[Tuple[int, ...]] = None
        self.dispatch_handle = registry.counter("kernel", "dispatch",
                                                shape="handle")
        self.dispatch_timer = registry.counter("kernel", "dispatch",
                                               shape="timer")
        self.dispatch_fast = registry.counter("kernel", "dispatch",
                                              shape="fast")
        self.drops_handle = registry.counter("kernel", "lazy_drops",
                                             shape="handle")
        self.drops_timer = registry.counter("kernel", "lazy_drops",
                                            shape="timer")

    def _counts(self) -> Tuple[int, ...]:
        return tuple(getattr(self.sim, name) for name in SHAPE_COUNTS)

    def install(self) -> "KernelDispatchProbe":
        if self._baseline is None:
            self._baseline = self._counts()
        return self

    def uninstall(self) -> None:
        if self._baseline is not None:
            counters = (self.dispatch_fast, self.dispatch_timer,
                        self.dispatch_handle, self.drops_timer,
                        self.drops_handle)
            for counter, now, then in zip(counters, self._counts(),
                                          self._baseline):
                counter.inc(now - then)
            self._baseline = None


def _install_kernel_sampling(sim: Simulator,
                             sampler: PeriodicSampler) -> None:
    """Heap/pending/cancellation gauges (cancellations are dominated by
    timer re-arms: every Timer re-anchor supersedes its live entry).
    The sampler fires inside ``run``, where the executed counter still
    holds the run's start, so the pending and executed figures come
    from a census of the queue instead."""
    sampler.add("kernel", "heap_depth", lambda: float(sim.heap_depth))
    sampler.add("kernel", "pending_events",
                lambda: float(live_entries(sim)))
    sampler.add("kernel", "events_executed",
                lambda: float(sim._scheduled - sim._cancelled_events
                              - live_entries(sim)))
    sampler.add("kernel", "cancelled_events",
                lambda: float(sim._cancelled_events))


class MediumProbe:
    """Per-channel airtime/frame accounting and fan-out widths.

    :meth:`install` adds a counting observer to ``medium.observers``,
    which both kernels call after the fan-out of every frame *and* every
    energy burst, so an observed medium keeps the transmit path an
    unobserved one takes.  One probe per medium: a second raises and
    registers nothing.  Plan/link-cache hit rates ride the sampler.
    """

    def __init__(self, medium: Any, registry: MetricsRegistry,
                 sampler: Optional[PeriodicSampler] = None):
        self.medium = medium
        self.registry = registry
        self._sampler = sampler
        self.fanout = registry.histogram("medium", "fanout_width")
        self.energy_bursts = registry.counter("medium", "energy_bursts")
        #: channel -> its (frames, airtime) counters, made on its first frame.
        self._channels: Dict[int, Tuple[Any, Any]] = {}

    def _observe(self, transmission: Any, width: int) -> None:
        channel = transmission.sender._channel_id
        counters = self._channels.get(channel)
        if counters is None:
            counter = self.registry.counter
            counters = self._channels[channel] = (
                counter("medium", "frames", channel=channel),
                counter("medium", "airtime_seconds", channel=channel))
        counters[0].value += 1
        counters[1].value += transmission.duration
        if transmission.size_bits == 0:
            self.energy_bursts.value += 1
        self.fanout.observe(width)

    def install(self) -> "MediumProbe":
        medium, sampler = self.medium, self._sampler
        for observer in medium.observers:
            if isinstance(getattr(observer, "__self__", None), MediumProbe):
                raise ConfigurationError(f"{medium!r} is probed already")
        medium.observers += (self._observe,)
        if sampler is not None:
            self._sampler = None  # sampled once, however often installed
            sampler.add("medium", "plan_hits",
                        lambda: float(medium.plan_hits))
            sampler.add("medium", "plan_misses",
                        lambda: float(medium.plan_misses))
            sampler.add("medium", "plan_invalidations",
                        lambda: float(medium.plan_invalidations))
            sampler.add("medium", "link_cache_hits",
                        lambda: float(medium.links.hits))
            sampler.add("medium", "link_cache_misses",
                        lambda: float(medium.links.misses))
        return self

    def uninstall(self) -> None:
        observers = list(self.medium.observers)
        if self._observe in observers:
            observers.remove(self._observe)
            self.medium.observers = tuple(observers)


class MacFleetProbe:
    """Aggregate DCF-fleet gauges, sampled — zero per-event cost.

    Everything here reads state the MACs already maintain: queue
    depths, NAV deadlines, contention-timer arming, and the per-MAC
    retry/drop counters.  ``backoff_stalled`` counts stations that hold
    a residual backoff but have neither IFS nor countdown armed — i.e.
    contenders frozen by a busy medium right now.
    """

    def __init__(self, macs: Iterable[Any], sampler: PeriodicSampler):
        self.macs = list(macs)
        if not self.macs:
            return
        sampler.add("mac", "queue_depth_total", self._queue_total)
        sampler.add("mac", "queue_depth_max", self._queue_max)
        sampler.add("mac", "nav_busy_count", self._nav_busy)
        sampler.add("mac", "backoff_stalled", self._backoff_stalled)
        sampler.add("mac", "retry_timeouts", self._retry_timeouts)
        sampler.add("mac", "queue_drops", self._queue_drops)

    def _queue_total(self) -> float:
        return float(sum(len(mac.queue) for mac in self.macs))

    def _queue_max(self) -> float:
        return float(max(len(mac.queue) for mac in self.macs))

    def _nav_busy(self) -> float:
        count = 0
        for mac in self.macs:
            if mac.sim._now < mac.nav._until:
                count += 1
        return float(count)

    def _backoff_stalled(self) -> float:
        count = 0
        for mac in self.macs:
            if mac._backoff_remaining is not None \
                    and not mac._ifs._armed and not mac._countdown._armed:
                count += 1
        return float(count)

    def _retry_timeouts(self) -> float:
        total = 0
        for mac in self.macs:
            counters = mac.counters
            total += counters.get("ack_timeouts") \
                + counters.get("cts_timeouts")
        return float(total)

    def _queue_drops(self) -> float:
        return float(sum(mac.counters.get("queue_drops")
                         for mac in self.macs))


class RadioFleetProbe:
    """Aggregate PHY-fleet gauge: incident arrivals."""

    def __init__(self, radios: Iterable[Any], sampler: PeriodicSampler):
        self.radios = list(radios)
        if not self.radios:
            return
        sampler.add("phy", "arrivals_incident", self._arrivals)

    def _arrivals(self) -> float:
        return float(sum(len(radio._arrivals) for radio in self.radios))


def record_fault_spans(fault_log: Any, spans: SpanLog,
                       horizon: Optional[float] = None) -> int:
    """Convert a FaultLog's crash/restart pairs into ``downtime`` spans.

    Delegates the pairing to
    :meth:`~repro.faults.schedule.FaultLog.downtime_spans`; targets
    still down at the horizon yield open spans (outcome ``open``).
    Returns the number of spans recorded.
    """
    recorded = 0
    for target, start, end in fault_log.downtime_spans():
        if end is None:
            span = Span("downtime", target, start, end=horizon,
                        outcome="open")
        else:
            span = Span("downtime", target, start, end=end,
                        outcome="restored")
        spans.record(span)
        recorded += 1
    return recorded


class Telemetry:
    """The whole observability layer behind one object.

    The hub owns one registry, one sim-time sampler, one span log and
    one frame tracker; :meth:`finish` takes the final edge sample,
    closes still-open frame spans and (optionally) folds a fault log
    into downtime spans.  ``enabled`` is accepted only as true, for
    callers that still pass it: telemetry off builds no hub.

    ``dispatch=True`` additionally books the run loop's per-shape
    dispatch and lazy-drop tallies (:class:`KernelDispatchProbe`) at
    :meth:`finish`; the simulator keeps its own run loop either way.
    """

    def __init__(self, sim: Simulator, enabled: bool = True,
                 sample_interval: float = 0.05):
        if not enabled:
            raise ConfigurationError("telemetry off builds no hub")
        self.sim = sim
        self.registry = MetricsRegistry()
        self.sampler = PeriodicSampler(sim, self.registry,
                                       interval=sample_interval)
        self.spans = SpanLog()
        self.frames = FrameSpanTracker(self.spans)
        self._dispatch_probe: Optional[KernelDispatchProbe] = None
        self._medium_probes: List[MediumProbe] = []
        self._fault_logs: List[Any] = []
        self._finished = False

    # --- wiring ------------------------------------------------------------

    def instrument_kernel(self, dispatch: bool = False) -> "Telemetry":
        _install_kernel_sampling(self.sim, self.sampler)
        if dispatch:
            self._dispatch_probe = KernelDispatchProbe(
                self.sim, self.registry).install()
        return self

    def instrument_medium(self, medium: Any) -> "Telemetry":
        self._medium_probes.append(
            MediumProbe(medium, self.registry, self.sampler).install())
        return self

    def instrument_macs(self, macs: Iterable[Any]) -> "Telemetry":
        macs = list(macs)
        MacFleetProbe(macs, self.sampler)
        for mac in macs:
            self.frames.attach(mac)
        return self

    def instrument_radios(self, radios: Iterable[Any]) -> "Telemetry":
        RadioFleetProbe(radios, self.sampler)
        return self

    def instrument_faults(self, fault_log: Any) -> "Telemetry":
        """Remember a fault log; :meth:`finish` folds it into spans."""
        self._fault_logs.append(fault_log)
        return self

    def install(self) -> "Telemetry":
        """Arm the periodic sampler (call after all ``instrument_*``)."""
        self.sampler.install()
        return self

    # --- wind-down ---------------------------------------------------------

    def finish(self) -> "Telemetry":
        """Final edge sample + span closure (idempotent)."""
        if self._finished:
            return self
        self._finished = True
        self.sampler.stop()
        self.sampler.sample_now()
        now = self.sim._now
        self.frames.finish(now)
        self.frames.detach_all()
        for fault_log in self._fault_logs:
            record_fault_spans(fault_log, self.spans, horizon=now)
        for probe in self._medium_probes:
            probe.uninstall()
        if self._dispatch_probe is not None:
            self._dispatch_probe.uninstall()
        return self

    # --- export conveniences ------------------------------------------------

    def sim_jsonl(self) -> str:
        """Canonical sim-time stream (byte-identical run-to-run)."""
        return to_jsonl(self.registry, spans=self.spans, stream="sim")

    def wall_jsonl(self) -> str:
        """The wall-clock stream — machine noise, never gated."""
        return to_jsonl(self.registry, spans=None, stream="wall")

    def summary(self) -> Dict[str, Any]:
        return summary_table(self.registry, spans=self.spans)
