"""Traffic generators.

Each generator produces timestamped payloads and pushes them into a
``send`` callable (typically ``station.send`` or ``mac.send`` bound to
a destination).  Payloads embed a sequence number and the send
timestamp so the matching :class:`~repro.traffic.sink.TrafficSink` can
compute delay, jitter, and loss without side channels.

* :class:`CbrSource` — constant bit rate (periodic fixed-size packets).
* :class:`PoissonSource` — exponential inter-arrivals.
* :class:`OnOffSource` — bursty: exponential ON periods of CBR traffic
  separated by exponential OFF periods.
* :class:`BulkTransferSource` — "send N bytes as fast as the MAC
  accepts them" (a saturating FTP-like source with window-limited
  outstanding packets).
* :class:`SaturatingSource` — keeps one MAC's queue non-empty forever
  (the saturation workload); it sends fixed payloads, not measurement
  packets.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional

from ..core.engine import EventHandle, Simulator
from ..core.errors import ConfigurationError
from ..mac.dcf import MacListener

#: Signature expected of the transmit hook: send(payload) -> accepted?
SendHook = Callable[[bytes], bool]

#: Header prepended to every generated payload: magic, flow id,
#: sequence number, send timestamp (float seconds).
_HEADER = struct.Struct("!IIId")
HEADER_SIZE = _HEADER.size
_MAGIC = 0x7E57F10A


def encode_packet(flow_id: int, sequence: int, timestamp: float,
                  size_bytes: int) -> bytes:
    """Build a measurement packet padded to ``size_bytes``."""
    if size_bytes < HEADER_SIZE:
        raise ConfigurationError(
            f"packet size must be >= {HEADER_SIZE} bytes, got {size_bytes}")
    header = _HEADER.pack(_MAGIC, flow_id, sequence, timestamp)
    return header + bytes(size_bytes - HEADER_SIZE)


def decode_packet(payload: bytes) -> Optional[tuple]:
    """Return (flow_id, sequence, timestamp) or None if not ours."""
    if len(payload) < HEADER_SIZE:
        return None
    magic, flow_id, sequence, timestamp = _HEADER.unpack_from(payload)
    if magic != _MAGIC:
        return None
    return flow_id, sequence, timestamp


class _SourceBase:
    """Common flow-id / sequence / accounting machinery."""

    _next_flow_id = 1

    def __init__(self, sim: Simulator, send: SendHook, packet_bytes: int):
        if packet_bytes < HEADER_SIZE:
            raise ConfigurationError(
                f"packet_bytes must be >= {HEADER_SIZE}")
        self.sim = sim
        self.send = send
        self.packet_bytes = packet_bytes
        self.flow_id = _SourceBase._next_flow_id
        _SourceBase._next_flow_id += 1
        self.sequence = 0
        self.generated = 0
        self.rejected = 0
        self._running = False

    def _emit(self) -> bool:
        payload = encode_packet(self.flow_id, self.sequence, self.sim.now,
                                self.packet_bytes)
        self.sequence += 1
        self.generated += 1
        accepted = self.send(payload)
        if not accepted:
            self.rejected += 1
        return accepted

    def stop(self) -> None:
        self._running = False

    @property
    def offered_bytes(self) -> int:
        return self.generated * self.packet_bytes


class CbrSource(_SourceBase):
    """Constant-bit-rate source: one packet every ``interval`` seconds."""

    def __init__(self, sim: Simulator, send: SendHook, packet_bytes: int,
                 interval: float, start: float = 0.0,
                 stop_after: Optional[int] = None):
        super().__init__(sim, send, packet_bytes)
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive: {interval}")
        self.interval = interval
        self.stop_after = stop_after
        self._running = True
        sim.schedule(start, self._tick)

    @classmethod
    def at_rate(cls, sim: Simulator, send: SendHook, packet_bytes: int,
                rate_bps: float, **kwargs) -> "CbrSource":
        """Convenience: derive the interval from a target bit rate."""
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive: {rate_bps}")
        interval = packet_bytes * 8 / rate_bps
        return cls(sim, send, packet_bytes, interval, **kwargs)

    def _tick(self) -> None:
        if not self._running:
            return
        self._emit()
        if self.stop_after is not None and self.generated >= self.stop_after:
            self._running = False
            return
        self.sim.schedule(self.interval, self._tick)


class PoissonSource(_SourceBase):
    """Poisson arrivals at ``rate_pps`` packets per second."""

    def __init__(self, sim: Simulator, send: SendHook, packet_bytes: int,
                 rate_pps: float, start: float = 0.0):
        super().__init__(sim, send, packet_bytes)
        if rate_pps <= 0:
            raise ConfigurationError(f"rate must be positive: {rate_pps}")
        self.rate_pps = rate_pps
        self._rng = sim.rng.stream(f"poisson.{self.flow_id}")
        self._running = True
        sim.schedule(start + self._rng.expovariate(rate_pps), self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._emit()
        self.sim.schedule(self._rng.expovariate(self.rate_pps), self._tick)


class OnOffSource(_SourceBase):
    """Bursty on/off source: CBR while ON, silent while OFF.

    ON and OFF period lengths are exponentially distributed with the
    given means; during ON, packets are emitted every ``interval``.
    """

    def __init__(self, sim: Simulator, send: SendHook, packet_bytes: int,
                 interval: float, mean_on: float, mean_off: float,
                 start: float = 0.0):
        super().__init__(sim, send, packet_bytes)
        if min(interval, mean_on, mean_off) <= 0:
            raise ConfigurationError("interval/mean_on/mean_off must be > 0")
        self.interval = interval
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = sim.rng.stream(f"onoff.{self.flow_id}")
        self._running = True
        self._on = False
        self._phase_ends = 0.0
        sim.schedule(start, self._start_on_phase)

    def _start_on_phase(self) -> None:
        if not self._running:
            return
        self._on = True
        duration = self._rng.expovariate(1.0 / self.mean_on)
        self._phase_ends = self.sim.now + duration
        self.sim.schedule(duration, self._start_off_phase)
        self._tick()

    def _start_off_phase(self) -> None:
        if not self._running:
            return
        self._on = False
        self.sim.schedule(self._rng.expovariate(1.0 / self.mean_off),
                          self._start_on_phase)

    def _tick(self) -> None:
        if not self._running or not self._on:
            return
        if self.sim.now > self._phase_ends:
            return
        self._emit()
        self.sim.schedule(self.interval, self._tick)


class BulkTransferSource(_SourceBase):
    """Window-limited greedy transfer of ``total_bytes``.

    Keeps ``window`` packets outstanding; a completion callback (wired
    to the MAC's tx-complete hook by the caller) releases the next one.
    This saturates the link without overflowing the MAC queue.
    """

    def __init__(self, sim: Simulator, send: SendHook, packet_bytes: int,
                 total_bytes: int, window: int = 4, start: float = 0.0,
                 on_complete: Optional[Callable[[float], None]] = None):
        super().__init__(sim, send, packet_bytes)
        if total_bytes < packet_bytes:
            raise ConfigurationError("total_bytes smaller than one packet")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self.total_packets = (total_bytes + packet_bytes - 1) // packet_bytes
        self.window = window
        self.completed = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._on_complete = on_complete
        self._running = True
        sim.schedule(start, self._start)

    def _start(self) -> None:
        self.started_at = self.sim.now
        for _ in range(min(self.window, self.total_packets)):
            self._emit()

    def packet_done(self) -> None:
        """Call when one in-flight packet completes (ACKed or dropped)."""
        if not self._running:
            return
        self.completed += 1
        if self.completed >= self.total_packets:
            self._running = False
            self.finished_at = self.sim.now
            if self._on_complete is not None and self.started_at is not None:
                self._on_complete(self.finished_at - self.started_at)
            return
        if self.generated < self.total_packets:
            self._emit()

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    def throughput_bps(self) -> float:
        """Goodput of the finished transfer (NaN while in flight)."""
        if self.started_at is None or self.finished_at is None:
            return float("nan")
        elapsed = self.finished_at - self.started_at
        if elapsed <= 0:
            return float("inf")
        return self.total_packets * self.packet_bytes * 8 / elapsed


class SaturatingSource(MacListener):
    """Saturation traffic: queues ``depth`` MSDUs on construction and one
    more on every completion, delivered or dropped.

    Install it as the ``DcfMac``'s listener, or register it with
    ``Station.on_tx_complete``: both call it with ``(msdu, success)``.
    Construction sends, so build it where the MAC's first MSDUs belong
    in the scenario's order (sequence numbers and backoff draws follow
    it).
    """

    def __init__(self, mac: Any, destination: Any, payload: bytes,
                 depth: int = 4):
        self.mac = mac
        self.destination = destination
        self.payload = payload
        for _ in range(depth):
            mac.send(destination, payload)

    def mac_tx_complete(self, msdu: Any, success: bool) -> None:
        self.mac.send(self.destination, self.payload)

    __call__ = mac_tx_complete
