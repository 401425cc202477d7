"""WiMAX (IEEE 802.16): point-to-multipoint metropolitan access.

The source text (§2.3, Fig 1.7) describes WiMAX as a scheduled,
point-to-multipoint MAC that "can transfer around 70 Mb/s over a
distance of 50 km to thousands of users from a single base station",
operating in two bands:

* **2–11 GHz, non-line-of-sight** — reaches indoor subscribers,
* **10–66 GHz, line-of-sight** — backhaul between towers.

Unlike 802.11's contention MAC, 802.16 is a **scheduled TDD frame**:
every 5 ms the base station grants downlink/uplink slots, so there are
no collisions — capacity is divided, not fought over.  Each subscriber
runs at the modulation its SNR supports (the standard's QPSK→64-QAM
ladder), so distant subscribers consume more airtime per byte — the
effect the distance sweep in experiment E7 shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..core.engine import PeriodicTask, Simulator
from ..core.errors import ConfigurationError, LinkError
from ..core.stats import Counter
from ..core.topology import Position
from ..core.units import (
    dbm_to_watts,
    thermal_noise_watts,
    watts_to_dbm,
)
from ..phy.propagation import FreeSpace, LogDistance, PropagationModel

FRAME_TIME = 5e-3
#: Fraction of the TDD frame granted to the downlink.
DL_FRACTION = 2.0 / 3.0
#: MAC/PHY framing efficiency (preambles, maps, FCH, guard symbols).
FRAMING_EFFICIENCY = 0.8


class WimaxBand(Enum):
    """The two 802.16 operating regimes."""

    NLOS = "2-11 GHz NLOS"
    LOS = "10-66 GHz LOS"


#: Burst profiles: (name, spectral efficiency b/s/Hz, required SNR dB).
BURST_PROFILES = (
    ("QPSK-1/2", 1.0, 6.0),
    ("QPSK-3/4", 1.5, 8.5),
    ("16QAM-1/2", 2.0, 11.5),
    ("16QAM-3/4", 3.0, 15.0),
    ("64QAM-2/3", 4.0, 19.0),
    ("64QAM-3/4", 4.5, 21.0),
)


@dataclass
class SubscriberStation:
    """One customer endpoint."""

    name: str
    position: Position
    line_of_sight: bool = False
    counters: Counter = field(default_factory=Counter)
    #: Bytes waiting for downlink delivery (filled by offer_downlink).
    backlog_bytes: int = 0
    delivered_bytes: int = 0

    def offer_downlink(self, size_bytes: int) -> None:
        self.backlog_bytes += size_bytes


class WimaxBaseStation:
    """A base station scheduling one TDD channel."""

    def __init__(self, sim: Simulator, position: Position,
                 band: WimaxBand = WimaxBand.NLOS,
                 channel_bandwidth_hz: float = 20e6,
                 tx_power_dbm: float = 43.0, antenna_gain_db: float = 16.0,
                 subscriber_gain_db: float = 6.0,
                 noise_figure_db: float = 7.0):
        self.sim = sim
        self.position = position
        self.band = band
        self.channel_bandwidth_hz = channel_bandwidth_hz
        self.tx_power_dbm = tx_power_dbm
        self.antenna_gain_db = antenna_gain_db
        self.subscriber_gain_db = subscriber_gain_db
        self.noise_watts = thermal_noise_watts(channel_bandwidth_hz,
                                               noise_figure_db)
        self.subscribers: List[SubscriberStation] = []
        self.counters = Counter()
        self._frame_task: Optional[PeriodicTask] = None
        self._rr_index = 0
        if band == WimaxBand.NLOS:
            # 3.5 GHz with a suburban path-loss exponent.
            self._propagation: PropagationModel = LogDistance(
                3.5e9, exponent=2.5, reference_distance=100.0)
        else:
            # 28 GHz free space; usable only with line of sight.
            self._propagation = FreeSpace(28e9, min_distance=10.0)

    # --- membership ------------------------------------------------------------

    def attach(self, subscriber: SubscriberStation) -> None:
        if self.band == WimaxBand.LOS and not subscriber.line_of_sight:
            raise LinkError(
                f"{subscriber.name}: the 10-66 GHz band requires line of "
                "sight to the base station")
        if self.link_profile(subscriber) is None:
            raise LinkError(
                f"{subscriber.name} is beyond the coverage of this BS")
        self.subscribers.append(subscriber)

    # --- link budget -------------------------------------------------------------

    def snr_db(self, subscriber: SubscriberStation) -> float:
        loss = self._propagation.path_loss_db(self.position,
                                              subscriber.position)
        rx_dbm = (self.tx_power_dbm + self.antenna_gain_db
                  + self.subscriber_gain_db - loss)
        return rx_dbm - watts_to_dbm(self.noise_watts)

    def link_profile(self, subscriber: SubscriberStation
                     ) -> Optional[tuple]:
        """Best burst profile the subscriber's SNR supports."""
        snr = self.snr_db(subscriber)
        best = None
        for profile in BURST_PROFILES:
            if snr >= profile[2]:
                best = profile
        return best

    def peak_rate_bps(self) -> float:
        """Channel capacity at the top burst profile (the '70 Mb/s')."""
        top_efficiency = BURST_PROFILES[-1][1]
        return (self.channel_bandwidth_hz * top_efficiency
                * FRAMING_EFFICIENCY)

    def max_range_m(self, upper_bound: float = 100_000.0) -> float:
        """Farthest distance the lowest burst profile still decodes."""
        required = BURST_PROFILES[0][2]
        low, high = 100.0, upper_bound
        probe = SubscriberStation("probe", Position(high, 0, 0))
        if self.snr_db(probe) >= required:
            return high
        for _ in range(60):
            mid = (low + high) / 2.0
            probe = SubscriberStation("probe", Position(mid, 0, 0))
            if self.snr_db(probe) >= required:
                low = mid
            else:
                high = mid
        return low

    # --- the TDD frame scheduler ---------------------------------------------------

    def start(self) -> None:
        if self._frame_task is None:
            self._frame_task = PeriodicTask(self.sim, FRAME_TIME,
                                            self._run_frame)

    def stop(self) -> None:
        if self._frame_task is not None:
            self._frame_task.cancel()
            self._frame_task = None

    def _run_frame(self) -> None:
        """Grant the DL subframe's symbols round-robin among backlogged
        subscribers, each at its own burst profile."""
        backlogged = [ss for ss in self.subscribers if ss.backlog_bytes > 0]
        self.counters.incr("frames")
        if not backlogged:
            return
        dl_symbol_time = FRAME_TIME * DL_FRACTION * FRAMING_EFFICIENCY
        share = dl_symbol_time / len(backlogged)
        start = self._rr_index % len(backlogged)
        ordered = backlogged[start:] + backlogged[:start]
        self._rr_index += 1
        for subscriber in ordered:
            profile = self.link_profile(subscriber)
            if profile is None:
                subscriber.counters.incr("out_of_coverage_frames")
                continue
            _name, efficiency, _snr = profile
            rate = self.channel_bandwidth_hz * efficiency
            capacity_bytes = int(rate * share / 8)
            granted = min(capacity_bytes, subscriber.backlog_bytes)
            subscriber.backlog_bytes -= granted
            subscriber.delivered_bytes += granted
            subscriber.counters.incr("granted_bytes", granted)
            self.counters.incr("dl_bytes", granted)
