"""Satellite links: GEO bent-pipe transponders.

For users "in remote areas or islands where no submarine cables are in
service" (source text §2.4), a geostationary satellite relays between
ground stations: the uplink signal is received by a transponder,
amplified, shifted to a different downlink frequency, and rebroadcast.

What matters behaviourally — and what experiment E8 measures — is the
**geometry**: GEO altitude is 35 786 km, so one ground-to-ground hop
costs roughly a quarter second of pure propagation delay, and any
window-limited protocol's throughput collapses to ``window / RTT``
long before the DVB-S2 channel rate (~60 Mb/s) is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, LinkError
from ..core.stats import Counter
from ..core.topology import Position
from ..core.units import SPEED_OF_LIGHT, mbps

GEO_ALTITUDE_M = 35_786_000.0
#: DVB-S2 on a 36 MHz transponder, 8PSK 3/4-ish.
DVBS2_RATE_BPS = mbps(60.0)


@dataclass
class Transponder:
    """One bent-pipe channel: uplink band in, downlink band out."""

    transponder_id: int
    uplink_hz: float
    downlink_hz: float
    bandwidth_hz: float = 36e6
    rate_bps: float = DVBS2_RATE_BPS
    #: Electronics latency through the bent pipe.
    pipe_delay: float = 5e-6
    in_use: bool = False


class GeoSatellite:
    """A geostationary satellite parked over a longitude."""

    def __init__(self, name: str, longitude_deg: float,
                 transponder_count: int = 24):
        if transponder_count < 1:
            raise ConfigurationError("need at least one transponder")
        self.name = name
        self.longitude_deg = longitude_deg
        # Position in a simple equatorial-plane frame (x = longitude arc).
        arc = math.radians(longitude_deg) * 6_371_000.0
        self.position = Position(arc, 0.0, GEO_ALTITUDE_M)
        self.transponders = [
            Transponder(index, uplink_hz=14e9 + index * 40e6,
                        downlink_hz=11e9 + index * 40e6)
            for index in range(transponder_count)
        ]

    def lease_transponder(self) -> Transponder:
        for transponder in self.transponders:
            if not transponder.in_use:
                transponder.in_use = True
                return transponder
        raise LinkError(f"{self.name}: all transponders leased")

    def release_transponder(self, transponder: Transponder) -> None:
        transponder.in_use = False


@dataclass
class GroundStation:
    """A dish on the ground."""

    name: str
    position: Position


class SatelliteLink:
    """A ground-to-ground link through one leased transponder."""

    def __init__(self, sim: Simulator, satellite: GeoSatellite,
                 station_a: GroundStation, station_b: GroundStation):
        self.sim = sim
        self.satellite = satellite
        self.a = station_a
        self.b = station_b
        self.transponder = satellite.lease_transponder()
        self.counters = Counter()
        self._busy_until: Dict[str, float] = {station_a.name: 0.0,
                                              station_b.name: 0.0}

    def close(self) -> None:
        self.satellite.release_transponder(self.transponder)

    # --- delay geometry ------------------------------------------------------------

    def _hop_distance(self, station: GroundStation) -> float:
        return station.position.distance_to(self.satellite.position)

    def one_way_delay(self, source: GroundStation,
                      destination: GroundStation) -> float:
        """Propagation up + bent pipe + propagation down."""
        up = self._hop_distance(source) / SPEED_OF_LIGHT
        down = self._hop_distance(destination) / SPEED_OF_LIGHT
        return up + self.transponder.pipe_delay + down

    def rtt(self) -> float:
        return (self.one_way_delay(self.a, self.b)
                + self.one_way_delay(self.b, self.a))

    # --- transfer ------------------------------------------------------------------

    def send(self, source_name: str, size_bytes: int,
             on_delivered: Optional[Callable[[float], None]] = None
             ) -> float:
        """Send a message; returns its delivery time at the far end."""
        if source_name == self.a.name:
            source, destination = self.a, self.b
        elif source_name == self.b.name:
            source, destination = self.b, self.a
        else:
            raise LinkError(f"{source_name} is not an endpoint of this link")
        start = max(self.sim.now, self._busy_until[source_name])
        serialization = size_bytes * 8 / self.transponder.rate_bps
        self._busy_until[source_name] = start + serialization
        delivery = start + serialization + self.one_way_delay(source,
                                                              destination)
        self.counters.incr("messages")
        self.counters.incr("bytes", size_bytes)
        if on_delivered is not None:
            self.sim.schedule_at(delivery, on_delivered, delivery)
        return delivery

    def window_limited_throughput_bps(self, window_bytes: int) -> float:
        """Steady-state goodput of a stop-and-wait-style window protocol:
        min(channel rate, window / RTT) — the classic satellite pain."""
        if window_bytes <= 0:
            raise ConfigurationError("window must be positive")
        return min(self.transponder.rate_bps,
                   window_bytes * 8 / self.rtt())
