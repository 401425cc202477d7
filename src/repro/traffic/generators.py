"""Traffic generators.

Each generator produces timestamped payloads and pushes them into a
``send`` callable (typically ``station.send`` or ``mac.send`` bound to
a destination).  Payloads embed a sequence number and the send
timestamp so the matching :class:`~repro.traffic.sink.TrafficSink` can
compute delay, jitter, and loss without side channels.

* :class:`CbrSource` — constant bit rate (periodic fixed-size packets).
* :class:`SaturatingSource` — keeps one MAC's queue non-empty forever
  (the saturation workload); it sends fixed payloads, not measurement
  packets.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Optional

from ..core.engine import Simulator
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
