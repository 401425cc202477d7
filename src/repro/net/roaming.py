"""Roaming policy and beacon tracking.

In an ESS, a station moving out of one AP's range must hand off to a
better AP without dropping its logical connection (source text §3.2,
Fig 1.10).  The ingredients live here:

* :class:`BeaconTracker` — an EWMA'd view of every AP the station has
  heard beacons from, keyed by BSSID.
* :class:`RoamingPolicy` — the decision rule: roam when the serving
  AP's smoothed SNR falls below a threshold *and* a same-SSID candidate
  beats it by a hysteresis margin, rate-limited by a dwell time so the
  station does not ping-pong between two equidistant APs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.errors import ConfigurationError
from ..mac.addresses import MacAddress


@dataclass
class BeaconObservation:
    """Smoothed state for one overheard AP."""

    bssid: MacAddress
    ssid: str
    channel: int
    capability: int
    beacon_interval_tu: int
    snr_db: float
    last_seen: float
    beacons: int = 1

    def update(self, snr_db: float, now: float, alpha: float) -> None:
        self.snr_db = (1.0 - alpha) * self.snr_db + alpha * snr_db
        self.last_seen = now
        self.beacons += 1


class BeaconTracker:
    """EWMA beacon table, the station's view of nearby APs."""

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1]: {alpha}")
        self.alpha = alpha
        self._table: Dict[MacAddress, BeaconObservation] = {}

    def observe(self, bssid: MacAddress, ssid: str, channel: int,
                capability: int, beacon_interval_tu: int, snr_db: float,
                now: float) -> BeaconObservation:
        entry = self._table.get(bssid)
        if entry is None:
            entry = BeaconObservation(bssid=bssid, ssid=ssid, channel=channel,
                                      capability=capability,
                                      beacon_interval_tu=beacon_interval_tu,
                                      snr_db=snr_db, last_seen=now)
            self._table[bssid] = entry
        else:
            entry.ssid = ssid
            entry.channel = channel
            entry.capability = capability
            entry.beacon_interval_tu = beacon_interval_tu
            entry.update(snr_db, now, self.alpha)
        return entry

    def get(self, bssid: MacAddress) -> Optional[BeaconObservation]:
        return self._table.get(bssid)

    def candidates(self, ssid: str,
                   exclude: Optional[MacAddress] = None
                   ) -> List[BeaconObservation]:
        """APs advertising ``ssid``, strongest first."""
        matches = [entry for entry in self._table.values()
                   if entry.ssid == ssid and entry.bssid != exclude]
        return sorted(matches, key=lambda entry: -entry.snr_db)

    def best(self, ssid: str) -> Optional[BeaconObservation]:
        candidates = self.candidates(ssid)
        return candidates[0] if candidates else None

    def forget(self, bssid: MacAddress) -> None:
        self._table.pop(bssid, None)

    def all(self) -> List[BeaconObservation]:
        return list(self._table.values())


@dataclass(frozen=True)
class RoamingPolicy:
    """When should a station abandon its serving AP for another?"""

    enabled: bool = True
    #: Roam only while the serving AP's smoothed SNR is below this.
    low_snr_threshold_db: float = 15.0
    #: The candidate must beat the serving AP by at least this much.
    hysteresis_db: float = 5.0
    #: Missed consecutive beacons before the link is declared lost.
    beacon_loss_limit: int = 5
    #: Minimum time between roams (anti-ping-pong).
    min_dwell: float = 1.0

    def should_roam(self, serving_snr_db: float,
                    candidate_snr_db: float,
                    time_since_last_roam: float) -> bool:
        if not self.enabled:
            return False
        if time_since_last_roam < self.min_dwell:
            return False
        if serving_snr_db >= self.low_snr_threshold_db:
            return False
        return candidate_snr_db >= serving_snr_db + self.hysteresis_db
