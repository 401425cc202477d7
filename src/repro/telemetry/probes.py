"""Instrumentation probes for every subsystem, plus the Telemetry hub.

Each probe wires one subsystem into a
:class:`~repro.telemetry.metrics.MetricsRegistry` /
:class:`~repro.telemetry.metrics.PeriodicSampler` pair.  The common
contract: a probe installed against a *disabled* registry is a complete
no-op (nothing wrapped, nothing sampled, nothing allocated), and an
installed probe never mutates simulation state — it reads counters and
gauges the subsystems already maintain, wraps a method with a
pass-through that only counts, or rides the one-slot ``_frame_probe``
hook.  Probes therefore cannot perturb seeded protocol outcomes; the
only observable difference in an instrumented run is the sampler's own
(read-only) events on the kernel heap.

:class:`Telemetry` bundles the whole layer behind one object — the
perf macros, the benchmark's ``telemetry.*`` service metrics and the
parallel executor all construct exactly this.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.engine import Simulator, Timer
from ..core.errors import SimulationError
from .export import summary_table, to_jsonl
from .metrics import MetricsRegistry, PeriodicSampler
from .spans import FrameSpanTracker, Span, SpanLog

__all__ = ["KernelDispatchProbe", "MediumProbe", "MacFleetProbe",
           "RadioFleetProbe", "record_fault_spans", "Telemetry"]


class KernelDispatchProbe:
    """Dispatch-by-shape counting for the kernel run loop.

    The production loop is untouched: :meth:`install` shadows
    ``sim.run`` with an instrumented twin *as an instance attribute*
    (the class method stays pristine for uninstrumented simulators).
    The twin executes the identical event sequence — same heap, same
    lazy-drop rules, same clock/counter semantics — and additionally
    counts dispatches per entry shape (handle / timer / fast) and lazy
    drops (cancelled handles, superseded timer versions).  It folds the
    fast until-only branch and the budget branch into one generic loop,
    so instrumented runs trade a little dispatch speed for visibility;
    that is the telemetry bargain, and exactly why install is opt-in.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry):
        self.sim = sim
        self._enabled = registry.enabled
        self._installed = False
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

    def install(self) -> "KernelDispatchProbe":
        if self._enabled and not self._installed:
            self.sim.run = self._run  # shadow the class method
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            del self.sim.run  # the class method resurfaces
            self._installed = False

    def _run(self, until: Optional[float] = None,
             max_events: Optional[int] = None) -> float:
        # Semantics mirror Simulator.run's generic branch exactly
        # (KEEP IN SYNC with engine.Simulator.run): identical event
        # sequence, clock behaviour and counter updates — plus the
        # per-shape counting.
        sim = self.sim
        if sim._running:
            raise SimulationError("run() called re-entrantly")
        sim._running = True
        sim._stopped = False
        heap = sim._heap
        pop = sim._pop
        timer_class = Timer
        d_handle = self.dispatch_handle
        d_timer = self.dispatch_timer
        d_fast = self.dispatch_fast
        drop_handle = self.drops_handle
        drop_timer = self.drops_timer
        budget = max_events if max_events is not None else math.inf
        try:
            while heap and not sim._stopped and budget > 0:
                entry = pop()
                time = entry[0]
                if until is not None and time > until:
                    sim._push(entry)
                    break
                event = entry[2]
                if event is None:
                    callback = entry[3]
                    args = entry[4]
                    d_fast.value += 1
                elif event.__class__ is timer_class:
                    if event._version != entry[3] or not event._armed:
                        drop_timer.value += 1
                        continue  # superseded/cancelled: lazy drop
                    event._armed = False
                    callback = event._callback
                    args = ()
                    d_timer.value += 1
                else:
                    if event._cancelled:
                        drop_handle.value += 1
                        continue
                    event._fired = True
                    callback = event.callback
                    args = event.args
                    d_handle.value += 1
                sim._now = time
                sim._events_executed += 1
                budget -= 1
                callback(*args)
            if until is not None and not sim._stopped and sim._now < until:
                sim._now = until
        finally:
            sim._running = False
        return sim._now


def _install_kernel_sampling(sim: Simulator,
                             sampler: PeriodicSampler) -> None:
    """Heap/pending/cancellation gauges (cancellations are dominated by
    timer re-arms: every Timer re-anchor supersedes its live entry)."""
    sampler.add("kernel", "heap_depth", lambda: float(sim.heap_depth))
    sampler.add("kernel", "pending_events",
                lambda: float(sim._scheduled - sim._events_executed
                              - sim._cancelled_events))
    sampler.add("kernel", "events_executed",
                lambda: float(sim._events_executed))
    sampler.add("kernel", "cancelled_events",
                lambda: float(sim._cancelled_events))


class MediumProbe:
    """Per-channel airtime/frame accounting and fan-out widths.

    :meth:`install` wraps ``medium.transmit`` with a counting
    pass-through, again as an instance attribute — and because
    ``Radio.transmit`` dispatches through ``self.medium.transmit`` and
    ``Medium.transmit_energy`` through ``self.transmit``, the one wrap
    observes every frame *and* every energy burst.  Fan-out width is
    recovered exactly from the kernel's scheduled-events counter (the
    fan-out pushes two heap entries per audible receiver and nothing
    else inside ``transmit`` schedules), so the probe needs no access
    to the compiled plans.  Plan/link-cache hit rates ride the sampler.
    """

    def __init__(self, medium: Any, registry: MetricsRegistry,
                 sampler: Optional[PeriodicSampler] = None):
        self.medium = medium
        self.registry = registry
        self._enabled = registry.enabled
        self._installed = False
        self._original: Optional[Callable] = None
        self.fanout = registry.histogram("medium", "fanout_width")
        self.energy_bursts = registry.counter("medium", "energy_bursts")
        if sampler is not None:
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

    def install(self) -> "MediumProbe":
        if not self._enabled or self._installed:
            return self
        medium = self.medium
        original = medium.transmit  # the bound class method
        sim = medium.sim
        fanout = self.fanout
        energy_bursts = self.energy_bursts
        counter = self.registry.counter
        # Per-channel handles, resolved lazily and memoized locally so
        # the steady state is two dict hits per frame.
        frames: Dict[int, Any] = {}
        airtime: Dict[int, Any] = {}

        def _transmit(sender: Any, payload: Any, size_bits: int, mode: Any,
                      duration: float, power_watts: float) -> Any:
            before = sim._scheduled
            transmission = original(sender, payload, size_bits, mode,
                                    duration, power_watts)
            channel = sender._channel_id
            frame_counter = frames.get(channel)
            if frame_counter is None:
                frame_counter = frames[channel] = counter(
                    "medium", "frames", channel=channel)
                airtime[channel] = counter(
                    "medium", "airtime_seconds", channel=channel)
            frame_counter.value += 1
            airtime[channel].value += duration
            if size_bits == 0:
                energy_bursts.value += 1
            fanout.observe((sim._scheduled - before) // 2)
            return transmission

        self._original = original
        medium.transmit = _transmit
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            del self.medium.transmit
            self._original = None
            self._installed = False


class MacFleetProbe:
    """Aggregate DCF-fleet gauges, sampled — zero per-event cost.

    Everything here reads state the MACs already maintain: queue
    depths, NAV deadlines, contention-timer arming, and the per-MAC
    retry/drop counters.  ``backoff_stalled`` counts stations that hold
    a residual backoff but have neither IFS nor countdown armed — i.e.
    contenders frozen by a busy medium right now.
    """

    def __init__(self, macs: Iterable[Any], registry: MetricsRegistry,
                 sampler: PeriodicSampler):
        self.macs = list(macs)
        if not registry.enabled or not self.macs:
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

    def __init__(self, radios: Iterable[Any], registry: MetricsRegistry,
                 sampler: PeriodicSampler):
        self.radios = list(radios)
        if not registry.enabled or not self.radios:
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
    if not spans.wants("downtime"):
        return 0
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

    Construct with ``enabled=False`` for a null hub: every
    ``instrument_*`` call and :meth:`install` short-circuits, metric
    handles are the shared null metric, and the simulation runs the
    byte-identical uninstrumented path.  Enabled, the hub owns one
    registry, one sim-time sampler, one span log and one frame tracker;
    :meth:`finish` takes the final edge sample, closes still-open frame
    spans and (optionally) folds a fault log into downtime spans.

    ``dispatch=True`` additionally swaps in the instrumented kernel run
    loop — the one probe with measurable enabled-path cost, so it is a
    separate opt-in.
    """

    def __init__(self, sim: Simulator, enabled: bool = True,
                 sample_interval: float = 0.05,
                 span_capacity: Optional[int] = 65_536,
                 series_capacity: Optional[int] = 100_000):
        self.sim = sim
        self.enabled = enabled
        self.registry = MetricsRegistry(enabled=enabled)
        self.registry.set_series_capacity(series_capacity)
        self.sampler = PeriodicSampler(sim, self.registry,
                                       interval=sample_interval)
        self.spans = SpanLog(capacity=span_capacity, enabled=enabled)
        self.frames = FrameSpanTracker(self.spans)
        self._dispatch_probe: Optional[KernelDispatchProbe] = None
        self._medium_probes: List[MediumProbe] = []
        self._fault_logs: List[Any] = []
        self._finished = False

    # --- wiring ------------------------------------------------------------

    def instrument_kernel(self, dispatch: bool = False) -> "Telemetry":
        if not self.enabled:
            return self
        _install_kernel_sampling(self.sim, self.sampler)
        if dispatch:
            self._dispatch_probe = KernelDispatchProbe(
                self.sim, self.registry).install()
        return self

    def instrument_medium(self, medium: Any) -> "Telemetry":
        if not self.enabled:
            return self
        self._medium_probes.append(
            MediumProbe(medium, self.registry, self.sampler).install())
        return self

    def instrument_macs(self, macs: Iterable[Any],
                        spans: bool = True) -> "Telemetry":
        if not self.enabled:
            return self
        macs = list(macs)
        MacFleetProbe(macs, self.registry, self.sampler)
        if spans:
            for mac in macs:
                self.frames.attach(mac)
        return self

    def instrument_radios(self, radios: Iterable[Any]) -> "Telemetry":
        if not self.enabled:
            return self
        RadioFleetProbe(radios, self.registry, self.sampler)
        return self

    def instrument_faults(self, fault_log: Any) -> "Telemetry":
        """Remember a fault log; :meth:`finish` folds it into spans."""
        if self.enabled:
            self._fault_logs.append(fault_log)
        return self

    def install(self) -> "Telemetry":
        """Arm the periodic sampler (call after all ``instrument_*``)."""
        self.sampler.install()
        return self

    # --- wind-down ---------------------------------------------------------

    def finish(self) -> "Telemetry":
        """Final edge sample + span closure (idempotent)."""
        if not self.enabled or self._finished:
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
