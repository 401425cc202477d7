"""The access point: beaconing, association management, bridging.

An :class:`AccessPoint` is the master of an infrastructure BSS (source
text §3): it broadcasts beacons, answers probe requests, runs the
open-system authentication and association exchanges, and bridges
traffic between its wireless stations and the distribution system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, Optional, Tuple

from ..core.engine import PeriodicTask
from ..core.errors import ProtocolError
from ..core.stats import Counter
from ..mac.addresses import BROADCAST, MacAddress
from ..mac.frames import Dot11Frame, ManagementSubtype
from .device import WirelessDevice
from .ds import DistributionSystem
from .elements import (
    AssocRequestBody,
    AssocResponseBody,
    AuthBody,
    AUTH_OPEN_SYSTEM,
    AUTH_SHARED_KEY,
    BeaconBody,
    CAP_ESS,
    CAP_PRIVACY,
    STATUS_REFUSED,
    STATUS_SUCCESS,
)

if TYPE_CHECKING:  # pragma: no cover - imported with a WEP key only
    from ..security.shared_key_auth import SharedKeyAuthenticator

#: Beacon interval expressed in time units of 1024 us (the standard's TU).
DEFAULT_BEACON_INTERVAL_TU = 100
TU_SECONDS = 1024e-6


@dataclass
class AssociationRecord:
    """Per-station state kept by the AP."""

    address: MacAddress
    aid: int
    associated_at: float
    authenticated: bool = True
    last_seen: float = 0.0
    #: True while the station has announced power-save mode (PM bit).
    power_save: bool = False


class AccessPoint(WirelessDevice):
    """Infrastructure-mode AP for one BSS."""

    def __init__(self, *args: Any, ssid: str = "repro-net",
                 ds: Optional[DistributionSystem] = None,
                 beacon_interval_tu: int = DEFAULT_BEACON_INTERVAL_TU,
                 privacy: bool = False, max_stations: int = 2007,
                 auth_algorithm: int = AUTH_OPEN_SYSTEM,
                 wep_key: Optional[bytes] = None,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.ssid = ssid
        self.privacy = privacy
        self.auth_algorithm = auth_algorithm
        self._shared_key_auth: Optional[SharedKeyAuthenticator] = None
        if auth_algorithm == AUTH_SHARED_KEY:
            if wep_key is None:
                raise ProtocolError(
                    "shared-key authentication requires a WEP key")
            from ..security.shared_key_auth import SharedKeyAuthenticator
            from ..security.wep import WepCipher
            self._shared_key_auth = SharedKeyAuthenticator(
                WepCipher(wep_key),
                rng=self.sim.rng.stream(f"skauth.{ssid}"))
        self.max_stations = max_stations
        self.beacon_interval_tu = beacon_interval_tu
        self.associations: Dict[MacAddress, AssociationRecord] = {}
        self.ap_counters = Counter()
        self._next_aid = 1
        self.mac.bssid = self.address  # the BSSID is the AP's MAC address
        self.ds = ds
        if ds is not None:
            ds.attach_ap(self)
        self._beacon_task: Optional[PeriodicTask] = None
        #: Frames buffered for dozing stations: (source, payload, protected).
        self._ps_buffers: Dict[MacAddress,
                               Deque[Tuple[MacAddress, bytes, bool]]] = {}
        self.ps_buffer_limit = 64
        #: Stale-station reaping (off until start_reaping is called).
        self._reap_task: Optional[PeriodicTask] = None
        self._reap_idle_timeout: Optional[float] = None
        self._reap_interval: Optional[float] = None

    # --- BSS identity ------------------------------------------------------------

    @property
    def bssid(self) -> MacAddress:
        return self.address

    @property
    def capability(self) -> int:
        capability = CAP_ESS
        if self.privacy:
            capability |= CAP_PRIVACY
        return capability

    def is_associated(self, station: MacAddress) -> bool:
        return station in self.associations

    @property
    def station_count(self) -> int:
        return len(self.associations)

    # --- beaconing ------------------------------------------------------------

    def start_beaconing(self, offset: Optional[float] = None) -> None:
        """Begin the periodic beacon broadcast."""
        if self._beacon_task is not None:
            return
        interval = self.beacon_interval_tu * TU_SECONDS
        self._beacon_task = PeriodicTask(self.sim, interval,
                                         self._send_beacon, offset=offset)

    def stop_beaconing(self) -> None:
        if self._beacon_task is not None:
            self._beacon_task.cancel()
            self._beacon_task = None

    def _beacon_body(self) -> bytes:
        rates = tuple(mode.data_rate_bps / 1e6
                      for mode in self.radio.standard.modes[:8])
        tim_aids = tuple(
            self.associations[station].aid
            for station, buffered in self._ps_buffers.items()
            if buffered and station in self.associations
            and 1 <= self.associations[station].aid <= 255)
        return BeaconBody(
            timestamp_us=int(self.sim.now * 1e6),
            beacon_interval_tu=self.beacon_interval_tu,
            capability=self.capability,
            ssid=self.ssid,
            supported_rates_mbps=rates,
            channel=self.radio.channel_id,
            tim_aids=tim_aids,
        ).encode()

    def _send_beacon(self) -> None:
        self.ap_counters.incr("beacons")
        self.mac.send_management(ManagementSubtype.BEACON, BROADCAST,
                                 self._beacon_body())

    # --- stale-station reaping -------------------------------------------------

    def start_reaping(self, idle_timeout: float = 2.0,
                      interval: Optional[float] = None) -> None:
        """Periodically drop stations not heard from in ``idle_timeout``.

        A station that crashed (or walked out of range without
        disassociating) otherwise stays in :attr:`associations` forever,
        holding an AID, a dedup history and possibly a power-save buffer.
        Checks run every ``interval`` seconds (default: half the
        timeout).  Survives :meth:`restart` once enabled.
        """
        if self._reap_task is not None:
            return
        self._reap_idle_timeout = idle_timeout
        self._reap_interval = interval if interval is not None \
            else idle_timeout / 2.0
        self._reap_task = PeriodicTask(self.sim, self._reap_interval,
                                       self._reap_stale)

    def stop_reaping(self) -> None:
        """Disable stale-station reaping (and forget its configuration)."""
        if self._reap_task is not None:
            self._reap_task.cancel()
            self._reap_task = None
        self._reap_idle_timeout = None
        self._reap_interval = None

    def _reap_stale(self) -> None:
        now = self.sim.now
        timeout = self._reap_idle_timeout
        if timeout is None:
            return
        stale = [address for address, record in self.associations.items()
                 if now - max(record.last_seen, record.associated_at) > timeout]
        for address in stale:
            self._ps_buffers.pop(address, None)
            self.mac.dedup.forget(address)
            self._remove_station(address, "stale")

    # --- management handling ------------------------------------------------------

    def mac_management(self, frame: Dot11Frame, snr_db: float) -> None:
        subtype = ManagementSubtype(frame.fc.subtype)
        sender = frame.transmitter
        if sender is None:
            return
        if subtype == ManagementSubtype.PROBE_REQUEST:
            self._handle_probe(sender, frame.body)
        elif subtype == ManagementSubtype.AUTHENTICATION:
            self._handle_auth(sender, frame.body)
        elif subtype in (ManagementSubtype.ASSOC_REQUEST,
                         ManagementSubtype.REASSOC_REQUEST):
            self._handle_assoc(sender, frame.body)
        elif subtype == ManagementSubtype.DISASSOCIATION:
            self._remove_station(sender, "disassociation")
        elif subtype == ManagementSubtype.DEAUTHENTICATION:
            self._remove_station(sender, "deauthentication")

    def _handle_probe(self, sender: MacAddress, body: bytes) -> None:
        # A probe request carries the SSID being sought; empty = wildcard.
        try:
            request = AssocRequestBody.decode(body) if body else None
        except Exception:
            request = None
        ssid = request.ssid if request is not None else ""
        if ssid and ssid != self.ssid:
            return
        self.ap_counters.incr("probe_responses")
        self.mac.send_management(ManagementSubtype.PROBE_RESPONSE, sender,
                                 self._beacon_body())

    def _handle_auth(self, sender: MacAddress, body: bytes) -> None:
        auth = AuthBody.decode(body)
        if auth.algorithm != self.auth_algorithm:
            if auth.sequence == 1:
                self.ap_counters.incr("auth_refused")
                self._send_auth_frame(sender, AuthBody(
                    auth.algorithm, 2, STATUS_REFUSED))
            return
        if self.auth_algorithm == AUTH_OPEN_SYSTEM:
            if auth.sequence != 1:
                return
            self.ap_counters.incr("auth_ok")
            self._send_auth_frame(sender, AuthBody(
                AUTH_OPEN_SYSTEM, 2, STATUS_SUCCESS))
            return
        # Shared-key: seq 1 -> challenge; seq 3 -> verify the WEP response.
        assert self._shared_key_auth is not None
        if auth.sequence == 1:
            challenge = self._shared_key_auth.issue_challenge(
                sender.to_bytes())
            self.ap_counters.incr("auth_challenges")
            self._send_auth_frame(sender, AuthBody(
                AUTH_SHARED_KEY, 2, STATUS_SUCCESS, challenge=challenge))
        elif auth.sequence == 3:
            ok = self._shared_key_auth.verify_response(sender.to_bytes(),
                                                       auth.challenge)
            status = STATUS_SUCCESS if ok else STATUS_REFUSED
            self.ap_counters.incr("auth_ok" if ok else "auth_refused")
            self._send_auth_frame(sender, AuthBody(
                AUTH_SHARED_KEY, 4, status))

    def _send_auth_frame(self, sender: MacAddress, body: AuthBody) -> None:
        self.mac.send_management(ManagementSubtype.AUTHENTICATION, sender,
                                 body.encode())

    def _handle_assoc(self, sender: MacAddress, body: bytes) -> None:
        request = AssocRequestBody.decode(body)
        if request.ssid != self.ssid or \
                len(self.associations) >= self.max_stations:
            response = AssocResponseBody(self.capability, STATUS_REFUSED, 0)
            self.ap_counters.incr("assoc_refused")
        else:
            record = self.associations.get(sender)
            if record is None:
                record = AssociationRecord(address=sender,
                                           aid=self._next_aid,
                                           associated_at=self.sim.now)
                self._next_aid += 1
                self.associations[sender] = record
            record.last_seen = self.sim.now
            response = AssocResponseBody(self.capability, STATUS_SUCCESS,
                                         record.aid)
            self.ap_counters.incr("assoc_ok")
            if self.ds is not None:
                self.ds.station_moved(sender, self)
        self.mac.send_management(ManagementSubtype.ASSOC_RESPONSE, sender,
                                 response.encode())

    def _remove_station(self, station: MacAddress, reason: str) -> None:
        if station in self.associations:
            del self.associations[station]
            self.ap_counters.incr(f"removed_{reason}")
            if self.ds is not None:
                self.ds.station_left(station, self)

    def station_roamed_away(self, station: MacAddress) -> None:
        """DS callback: the station reassociated with another AP."""
        self.associations.pop(station, None)
        self.mac.dedup.forget(station)

    def deauthenticate(self, station: MacAddress) -> None:
        """Kick a station: send DEAUTHENTICATION and drop its state
        (load shedding, admin policy, key rotation)."""
        if station not in self.associations:
            return
        self.mac.send_management(ManagementSubtype.DEAUTHENTICATION,
                                 station, b"")
        self._remove_station(station, "deauthenticated")

    # --- bridging ------------------------------------------------------------

    def mac_receive(self, source: MacAddress, destination: MacAddress,
                    payload: bytes, meta: Dict[str, Any]) -> None:
        if not meta.get("to_ds"):
            # Stray IBSS-style frame; deliver only if explicitly for us.
            if destination == self.address:
                self.deliver_up(source, payload, meta)
            return
        if source not in self.associations:
            # Class-3 frame from a station we hold no association for.
            # Answer with a Deauthentication (IEEE 802.11 class-3 rule):
            # a station carrying stale association state — typically
            # because *we* crashed and rebooted underneath it — learns
            # immediately to re-enter the state machine instead of
            # feeding a void until beacon-loss timers notice.
            self.ap_counters.incr("unassociated_data")
            self.mac.send_management(ManagementSubtype.DEAUTHENTICATION,
                                     source, b"")
            return
        self.associations[source].last_seen = self.sim.now
        protected = bool(meta.get("protected"))
        if destination == self.address:
            self.deliver_up(source, payload, meta)
        elif destination.is_broadcast or destination.is_multicast:
            # Deliver locally, rebroadcast into the BSS, and forward to the DS.
            self.deliver_up(source, payload, meta)
            self._send_from_ds(source, destination, payload, protected)
            if self.ds is not None:
                self.ds.forward(self, source, destination, payload, meta)
        elif destination in self.associations:
            self.ap_counters.incr("intra_bss_relays")
            self._send_from_ds(source, destination, payload, protected)
        elif self.ds is not None:
            self.ds.forward(self, source, destination, payload, meta)
        else:
            self.ap_counters.incr("no_route")

    def deliver_from_ds(self, source: MacAddress, destination: MacAddress,
                        payload: bytes, protected: bool = False) -> None:
        """DS hands us a frame for one of our stations (or broadcast)."""
        if destination == self.address:
            self.deliver_up(source, payload, {"from_ds": True,
                                              "protected": protected})
            return
        if not destination.is_broadcast and not destination.is_multicast \
                and destination not in self.associations:
            self.ap_counters.incr("ds_unknown_station")
            return
        self._send_from_ds(source, destination, payload, protected)

    def _send_from_ds(self, source: MacAddress, destination: MacAddress,
                      payload: bytes, protected: bool = False) -> None:
        record = self.associations.get(destination)
        if record is not None and record.power_save:
            self._buffer_for_dozing(source, destination, payload, protected)
            return
        self.mac.send(destination, payload, protected=protected,
                      meta={"from_ds": True, "source": source})

    # --- power-save support --------------------------------------------------

    def _buffer_for_dozing(self, source: MacAddress,
                           destination: MacAddress, payload: bytes,
                           protected: bool) -> None:
        buffered = self._ps_buffers.setdefault(destination, deque())
        if len(buffered) >= self.ps_buffer_limit:
            buffered.popleft()  # drop-oldest under pressure
            self.ap_counters.incr("ps_buffer_drops")
        buffered.append((source, payload, protected))
        self.ap_counters.incr("ps_buffered")

    def mac_power_state(self, station: MacAddress,
                        power_save: bool) -> None:
        record = self.associations.get(station)
        if record is None:
            return
        was_dozing = record.power_save
        record.power_save = power_save
        if was_dozing and not power_save:
            # The station woke up for good: flush everything.
            buffered = self._ps_buffers.pop(station, deque())
            self.ap_counters.incr("ps_flushes", len(buffered) or 0)
            for source, payload, protected in buffered:
                self.mac.send(station, payload, protected=protected,
                              meta={"from_ds": True, "source": source})

    def mac_ps_poll(self, station: MacAddress, aid: int) -> None:
        record = self.associations.get(station)
        if record is None or record.aid != aid:
            self.ap_counters.incr("ps_poll_bad_aid")
            return
        buffered = self._ps_buffers.get(station)
        if not buffered:
            self.ap_counters.incr("ps_poll_empty")
            return
        source, payload, protected = buffered.popleft()
        self.ap_counters.incr("ps_poll_releases")
        self.mac.send(station, payload, protected=protected,
                      meta={"from_ds": True, "source": source,
                            "more_data": bool(buffered)})

    def buffered_for(self, station: MacAddress) -> int:
        """Frames currently held for a dozing station (diagnostics)."""
        return len(self._ps_buffers.get(station, ()))

    def send_to_station(self, destination: MacAddress, payload: bytes,
                        protected: bool = False) -> bool:
        """AP-originated traffic (the AP as a host, e.g. a captive portal).

        Routed through the same path as relayed traffic so frames for a
        dozing station are buffered and announced in the TIM."""
        if not destination.is_broadcast and destination not in self.associations:
            raise ProtocolError(f"{destination} is not associated with {self.name}")
        self._send_from_ds(self.address, destination, payload, protected)
        return True

    # --- fault injection ---------------------------------------------------------

    def crash(self) -> None:
        """Power loss: the whole BSS state evaporates, radio off.

        Beaconing stops, the association table, AID space and power-save
        buffers are dropped (the DS is told each station left, so ESS
        forwarding stops routing through us), and the MAC and radio are
        torn down.  Stations discover the outage through beacon loss —
        a crashed AP sends no disassociation frames.
        """
        self.ap_counters.incr("crashes")
        self.stop_beaconing()
        if self._reap_task is not None:
            self._reap_task.cancel()
            self._reap_task = None  # re-armed by restart(); config kept
        stations = list(self.associations)
        self.associations.clear()
        self._ps_buffers.clear()
        self._next_aid = 1
        if self.ds is not None:
            for station in stations:
                self.ds.station_left(station, self)
        self.mac.crash()
        self.radio.power_off()

    def restart(self, beacon_offset: Optional[float] = None) -> None:
        """Boot after :meth:`crash`: radio on, beaconing resumed (with a
        fresh empty association table), reaping re-armed if it had been
        configured before the crash."""
        self.ap_counters.incr("restarts")
        self.radio.power_on()
        self.start_beaconing(offset=beacon_offset)
        if self._reap_idle_timeout is not None and self._reap_task is None:
            self._reap_task = PeriodicTask(self.sim, self._reap_interval,
                                           self._reap_stale)
