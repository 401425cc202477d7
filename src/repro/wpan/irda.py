"""IrDA: infrared point-to-point links.

IrDA (source text §2.1) is unidirectional in aim — a narrow (<30°)
cone — point-to-point, up to ~1 meter, with negotiated rates from
9600 b/s (the discovery rate every device supports) up to 16 Mb/s.
The geometric constraints are the interesting part to model: both
devices must be within range *and* each must lie inside the other's
half-angle cone, or the link simply does not form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, LinkError
from ..core.topology import Position
from ..core.units import kbps, mbps

#: Rates a device may support, lowest first (SIR ... VFIR).
IRDA_RATES_BPS = (
    kbps(9.6), kbps(115.2), mbps(0.576), mbps(1.152),
    mbps(4.0), mbps(16.0),
)
#: Discovery always happens at 9600 b/s.
DISCOVERY_RATE_BPS = kbps(9.6)
MAX_RANGE_M = 1.0
#: Half-angle of the emission/reception cone (< 30 degree full cone).
HALF_ANGLE_RAD = math.radians(15.0)


@dataclass
class IrdaDevice:
    """An IR endpoint: position plus the direction it points."""

    name: str
    position: Position
    #: Facing direction in radians (xy plane, from the +x axis).
    facing_rad: float
    max_rate_bps: float = mbps(4.0)

    def __post_init__(self) -> None:
        if self.max_rate_bps not in IRDA_RATES_BPS:
            raise ConfigurationError(
                f"unsupported IrDA rate {self.max_rate_bps}")

    def sees(self, other: "IrdaDevice",
             half_angle_rad: float = HALF_ANGLE_RAD) -> bool:
        """Is ``other`` inside this device's emission cone?"""
        bearing = self.position.bearing_to(other.position)
        offset = abs(_angle_difference(bearing, self.facing_rad))
        return offset <= half_angle_rad


def _angle_difference(a: float, b: float) -> float:
    """Signed smallest difference between two angles."""
    diff = (a - b + math.pi) % (2.0 * math.pi) - math.pi
    return diff


class IrdaLink:
    """A negotiated point-to-point IR link between two devices."""

    def __init__(self, sim: Simulator, a: IrdaDevice, b: IrdaDevice,
                 max_range_m: float = MAX_RANGE_M):
        distance = a.position.distance_to(b.position)
        if distance > max_range_m:
            raise LinkError(
                f"IrDA link {a.name}<->{b.name}: {distance:.2f} m exceeds "
                f"the {max_range_m:.1f} m range")
        if not a.sees(b):
            raise LinkError(f"{b.name} is outside {a.name}'s IR cone")
        if not b.sees(a):
            raise LinkError(f"{a.name} is outside {b.name}'s IR cone")
        self.sim = sim
        self.a = a
        self.b = b
        self.distance = distance
        #: Negotiation: the highest rate both ends support.
        self.rate_bps = min(a.max_rate_bps, b.max_rate_bps)
        self.bytes_transferred = 0
        self._busy_until = 0.0

    def discovery_time(self, frames: int = 6,
                       frame_bytes: int = 64) -> float:
        """Device discovery runs at 9600 b/s before rate negotiation."""
        return frames * frame_bytes * 8 / DISCOVERY_RATE_BPS

    def transfer_time(self, size_bytes: int,
                      overhead_per_frame: int = 8,
                      frame_bytes: int = 2048) -> float:
        """Time to move ``size_bytes`` across the negotiated link."""
        if size_bytes < 0:
            raise ConfigurationError("size must be non-negative")
        frames = max((size_bytes + frame_bytes - 1) // frame_bytes, 1)
        total_bits = (size_bytes + frames * overhead_per_frame) * 8
        return total_bits / self.rate_bps

    def transfer(self, size_bytes: int, on_done=None) -> float:
        """Schedule a transfer on the simulator; returns completion time."""
        start = max(self.sim.now, self._busy_until)
        duration = self.transfer_time(size_bytes)
        finish = start + duration
        self._busy_until = finish

        def _complete() -> None:
            self.bytes_transferred += size_bytes
            if on_done is not None:
                on_done(size_bytes)

        self.sim.schedule_at(finish, _complete)
        return finish
