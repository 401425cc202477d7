"""The traffic sink: per-flow delivery statistics.

Feed every received measurement payload into a :class:`TrafficSink`
(typically from a device's receive hook).  The sink decodes the header
written by the generators and tracks, per flow and in aggregate:

* received packet and byte counts, goodput over the observation window,
* one-way delay (mean / percentiles, via :class:`SampleStat`),
* RFC3550-style smoothed jitter,
* loss, inferred from sequence-number gaps.

:class:`DeliveryCounter` is the sink of saturation traffic: it counts
frames and bytes of any payload, without decoding a header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.engine import Simulator
from ..core.stats import SampleStat
from ..mac.dcf import MacListener
from .generators import decode_packet


@dataclass
class FlowStats:
    """Per-flow accounting."""

    flow_id: int
    received: int = 0
    bytes_received: int = 0
    first_rx: Optional[float] = None
    last_rx: Optional[float] = None
    highest_sequence: int = -1
    out_of_order: int = 0
    delay: SampleStat = field(default_factory=SampleStat)
    jitter: float = 0.0  # RFC3550 smoothed interarrival jitter
    #: Wireless hop counts, when the flow crossed a mesh (empty otherwise).
    hops: SampleStat = field(default_factory=SampleStat)
    _last_transit: Optional[float] = None

    def record(self, now: float, sequence: int, sent_at: float,
               size: int, hops: Optional[int] = None) -> None:
        self.received += 1
        self.bytes_received += size
        if self.first_rx is None:
            self.first_rx = now
        self.last_rx = now
        if sequence > self.highest_sequence:
            self.highest_sequence = sequence
        else:
            self.out_of_order += 1
        if hops is not None:
            self.hops.add(hops)
        transit = now - sent_at
        self.delay.add(transit)
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            self.jitter += (deviation - self.jitter) / 16.0
        self._last_transit = transit

    @property
    def expected(self) -> int:
        """Packets the sender emitted up to the highest sequence seen."""
        return self.highest_sequence + 1

    @property
    def lost(self) -> int:
        return max(self.expected - self.received, 0)

    @property
    def loss_ratio(self) -> float:
        if self.expected == 0:
            return math.nan
        return self.lost / self.expected

    def goodput_bps(self, window: Optional[float] = None) -> float:
        """Delivered payload bits per second.

        ``window`` overrides the measurement interval; by default the
        span between first and last reception is used.
        """
        if self.first_rx is None or self.last_rx is None:
            return 0.0
        span = window if window is not None else self.last_rx - self.first_rx
        if span <= 0:
            return 0.0
        return self.bytes_received * 8 / span


class TrafficSink:
    """Aggregates measurement packets across flows."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.flows: Dict[int, FlowStats] = {}
        self.foreign_packets = 0

    def __call__(self, source, payload: bytes, meta=None) -> None:
        """Receive-hook adapter (matches ``device.on_receive`` and
        ``MeshNode.on_receive`` signatures).  Mesh deliveries annotate
        ``meta["mesh_hops"]``, which feeds the per-flow hop statistic."""
        hops = meta.get("mesh_hops") if meta else None
        self.consume(payload, hops=hops)

    def consume(self, payload: bytes, hops: Optional[int] = None) -> bool:
        """Feed one received payload; returns False for foreign bytes."""
        decoded = decode_packet(payload)
        if decoded is None:
            self.foreign_packets += 1
            return False
        flow_id, sequence, timestamp = decoded
        flow = self.flows.get(flow_id)
        if flow is None:
            flow = FlowStats(flow_id=flow_id)
            self.flows[flow_id] = flow
        flow.record(self.sim.now, sequence, timestamp, len(payload),
                    hops=hops)
        return True

    # --- aggregates ------------------------------------------------------------

    @property
    def total_received(self) -> int:
        return sum(flow.received for flow in self.flows.values())

    @property
    def total_bytes(self) -> int:
        return sum(flow.bytes_received for flow in self.flows.values())

    def total_goodput_bps(self, window: float) -> float:
        if window <= 0:
            return 0.0
        return self.total_bytes * 8 / window

    def mean_delay(self) -> float:
        stat = SampleStat()
        for flow in self.flows.values():
            if flow.delay.count:
                stat.add(flow.delay.mean)
        return stat.mean

    def flow(self, flow_id: int) -> Optional[FlowStats]:
        return self.flows.get(flow_id)


class DeliveryCounter(MacListener):
    """Counts delivered MSDUs (``frames``) and their payload ``bytes``.

    Install it as a ``DcfMac``'s listener, or register it with
    ``Station.on_receive``.
    """

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0

    def mac_receive(self, source: Any, destination: Any, payload: bytes,
                    meta: Any) -> None:
        self.frames += 1
        self.bytes += len(payload)

    def __call__(self, source: Any, payload: bytes, meta: Any = None) -> None:
        self.frames += 1
        self.bytes += len(payload)
