"""Resilience metrics: how fast a network recovers from injected faults.

Post-processing for fault-injection experiments
(:mod:`repro.faults`).  Everything operates on plain event timestamps
(offer times, delivery times, association state changes), so the
functions are simulator-agnostic and trivially unit-testable:

* :func:`pdr_timeline` — binned packet-delivery-ratio curve over the
  run, the raw material for every dip/recovery plot,
* :func:`steady_state_pdr` / :func:`recovery_time` — "the network
  delivered X before the fault; how long after the fault until it is
  back to 90 % of X?",
* :func:`route_repair_time` — first successful end-to-end delivery
  after a routing fault,
* :class:`ReassociationProbe` — hooks a station's association and
  disassociation callbacks to time reassociation and enumerate outage
  windows.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError


def pdr_timeline(offered_times: Sequence[float],
                 delivered_times: Sequence[float],
                 bin_width: float,
                 horizon: Optional[float] = None
                 ) -> List[Tuple[float, float]]:
    """Binned packet delivery ratio over time.

    Returns ``[(bin_start, pdr), ...]`` where each bin's PDR is
    deliveries / offers *in that bin* (delivery counts in the bin its
    packet arrived, not the bin it was offered — a recovering network
    can therefore briefly show PDR > 1.0 as the backlog drains, which
    is exactly the flush signature worth seeing on a plot).  Bins with
    no offered traffic get ``nan``.
    """
    if bin_width <= 0:
        raise ConfigurationError(f"bin_width must be > 0: {bin_width}")
    if horizon is None:
        horizon = max(max(offered_times, default=0.0),
                      max(delivered_times, default=0.0))
    bins = max(1, math.ceil(horizon / bin_width))
    offered = [0] * bins
    delivered = [0] * bins
    for t in offered_times:
        index = min(int(t / bin_width), bins - 1)
        offered[index] += 1
    for t in delivered_times:
        index = min(int(t / bin_width), bins - 1)
        delivered[index] += 1
    return [(i * bin_width,
             delivered[i] / offered[i] if offered[i] else math.nan)
            for i in range(bins)]


def steady_state_pdr(timeline: Sequence[Tuple[float, float]],
                     start: float, end: float) -> float:
    """Mean PDR across the bins whose start falls in ``[start, end)``,
    ignoring empty (nan) bins.  Returns nan if the window is empty."""
    values = [pdr for bin_start, pdr in timeline
              if start <= bin_start < end and not math.isnan(pdr)]
    return sum(values) / len(values) if values else math.nan


def recovery_time(timeline: Sequence[Tuple[float, float]],
                  fault_at: float, baseline_pdr: float,
                  fraction: float = 0.9) -> Optional[float]:
    """Time from ``fault_at`` until PDR first climbs back to
    ``fraction`` of ``baseline_pdr`` — and *stays* there for the rest
    of the timeline's non-empty bins.  None if it never recovers.

    The sustain requirement matters: a single lucky bin during a
    crash/restart storm is not recovery.
    """
    if math.isnan(baseline_pdr) or baseline_pdr <= 0:
        return None
    threshold = baseline_pdr * fraction
    candidate: Optional[float] = None
    for bin_start, pdr in timeline:
        if bin_start < fault_at or math.isnan(pdr):
            continue
        if pdr >= threshold:
            if candidate is None:
                candidate = bin_start - fault_at
        else:
            candidate = None
    return candidate


def route_repair_time(delivered_times: Sequence[float],
                      fault_at: float) -> Optional[float]:
    """Delay from the fault to the first end-to-end delivery after it
    (the routing layer's time-to-repair).  None if traffic never
    resumes."""
    after = [t for t in delivered_times if t >= fault_at]
    return min(after) - fault_at if after else None


class ReassociationProbe:
    """Record one station's association/disassociation edge times.

    Hooks the station's existing callback lists, so attaching a probe
    never changes simulation behaviour.  Events accumulate as
    ``(time, "assoc" | "disassoc")`` tuples in :attr:`events`.
    """

    def __init__(self, sim, station):
        self.sim = sim
        self.station = station
        self.events: List[Tuple[float, str]] = []
        station.on_associated(self._on_assoc)
        station.on_disassociated(self._on_disassoc)

    def _on_assoc(self, bssid) -> None:
        self.events.append((self.sim.now, "assoc"))

    def _on_disassoc(self) -> None:
        self.events.append((self.sim.now, "disassoc"))

    def time_to_reassociate(self, after: float) -> Optional[float]:
        """Delay from ``after`` (e.g. the crash instant) to the first
        association edge at or past it.  None if never reassociated."""
        for time, kind in self.events:
            if kind == "assoc" and time >= after:
                return time - after
        return None

    def outage_spans(self, until: Optional[float] = None
                     ) -> List[Tuple[float, Optional[float]]]:
        """``(start, end)`` for every disassociated window; ``end`` is
        None (or ``until``) for an outage still open at the end."""
        spans: List[Tuple[float, Optional[float]]] = []
        open_at: Optional[float] = None
        for time, kind in self.events:
            if kind == "disassoc" and open_at is None:
                open_at = time
            elif kind == "assoc" and open_at is not None:
                spans.append((open_at, time))
                open_at = None
        if open_at is not None:
            spans.append((open_at, until))
        return spans

    @property
    def reassociations(self) -> int:
        return sum(1 for _, kind in self.events if kind == "assoc")
