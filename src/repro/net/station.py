"""The station (STA): scanning, association, roaming, data transfer.

A :class:`Station` runs the client side of the 802.11 connection
state machine::

    IDLE -> SCANNING -> AUTHENTICATING -> ASSOCIATING -> ASSOCIATED

In infrastructure mode all data flows through the associated AP
(To DS frames); in ad-hoc (IBSS) mode stations talk peer-to-peer with
a shared IBSS BSSID and no association at all (source text §3.2).

Roaming: while associated, the station keeps scoring beacons from
same-SSID APs through its :class:`~repro.net.roaming.BeaconTracker`;
when the :class:`~repro.net.roaming.RoamingPolicy` fires, it simply
re-runs authentication/association against the better AP — the DS
location table does the rest.  Beacon loss (``beacon_loss_limit``
missed intervals) tears the link down and triggers a rescan.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..core.engine import PeriodicTask, Timer
from ..core.errors import FrameError, ProtocolError
from ..core.stats import Counter
from ..mac.addresses import BROADCAST, MacAddress
from ..mac.frames import Dot11Frame, ManagementSubtype
from .ap import TU_SECONDS
from .device import WirelessDevice
from ..security.shared_key_auth import SharedKeyClient
from ..security.wep import WepCipher
from .elements import (
    AssocRequestBody,
    AssocResponseBody,
    AuthBody,
    AUTH_OPEN_SYSTEM,
    AUTH_SHARED_KEY,
    BeaconBody,
    STATUS_SUCCESS,
)
from .roaming import BeaconObservation, BeaconTracker, RoamingPolicy


class StationState(Enum):
    IDLE = "idle"
    SCANNING = "scanning"
    AUTHENTICATING = "authenticating"
    ASSOCIATING = "associating"
    ASSOCIATED = "associated"


#: Callback fired on association/roam: (bssid) -> None.
AssociationHook = Callable[[MacAddress], None]


class Station(WirelessDevice):
    """A client station, infrastructure or ad-hoc."""

    #: Management exchange timeout and retry budget.
    MGMT_TIMEOUT = 20e-3
    MGMT_RETRIES = 4
    #: Empty-scan retry backoff: the first retry comes after exactly
    #: RESCAN_BASE (no RNG draw — the common single-miss case stays
    #: bit-identical to historical runs); consecutive misses then
    #: double the delay up to RESCAN_CAP with +/-50% jitter drawn from
    #: the station's dedicated ``sta.<name>`` stream, so a cell full of
    #: orphaned stations does not rescan in lockstep forever.
    RESCAN_BASE = 0.2
    RESCAN_CAP = 5.0

    def __init__(self, *args: Any, adhoc: bool = False,
                 ibss_bssid: Optional[MacAddress] = None,
                 roaming_policy: Optional[RoamingPolicy] = None,
                 auth_algorithm: int = AUTH_OPEN_SYSTEM,
                 wep_key: Optional[bytes] = None,
                 **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.auth_algorithm = auth_algorithm
        self._shared_key_client: Optional[SharedKeyClient] = None
        if auth_algorithm == AUTH_SHARED_KEY:
            if wep_key is None:
                raise ProtocolError(
                    "shared-key authentication requires a WEP key")
            self._shared_key_client = SharedKeyClient(WepCipher(wep_key))
        self.adhoc = adhoc
        if adhoc:
            # In an IBSS the BSSID is a locally administered address
            # chosen by the IBSS starter; peers must share it.
            self.mac.bssid = ibss_bssid if ibss_bssid is not None \
                else self.address
        self.state = StationState.IDLE
        self.tracker = BeaconTracker()
        self.roaming = roaming_policy if roaming_policy is not None \
            else RoamingPolicy()
        self.sta_counters = Counter()
        self.target_ssid: Optional[str] = None
        self.serving_ap: Optional[MacAddress] = None
        self._target_bssid: Optional[MacAddress] = None
        # Management/scan/power-save deadlines ride on reusable kernel
        # Timers (the same re-anchorable primitive the MAC contention
        # machinery uses) — they are armed and re-armed constantly
        # during scans and PS cycles.
        self._mgmt_timer = Timer(self.sim, self._mgmt_timeout)
        self._mgmt_retry: Optional[Callable[[], None]] = None
        self._mgmt_attempts = 0
        self._scan_timer = Timer(self.sim, self._scan_next_channel)
        self._rescan_timer = Timer(self.sim, self._retry_scan)
        self._scan_channels: List[int] = []
        self._scan_dwell = 0.0
        self._scan_active = False
        #: Consecutive empty scans (drives the rescan backoff).
        self._scan_failures = 0
        #: Give up scanning (-> IDLE) after this many consecutive empty
        #: scans; ``None`` retries forever (historical behaviour).
        self.max_scan_failures: Optional[int] = None
        self._rescan_rng = None  # lazily bound `sta.<name>` jitter stream
        self._last_roam = -1e9
        self._link_monitor: Optional[PeriodicTask] = None
        self._last_beacon_from_serving = 0.0
        self._assoc_hooks: List[AssociationHook] = []
        self._disassoc_hooks: List[Callable[[], None]] = []
        #: Power-save state (§4.2 Power Management / PS-Poll machinery).
        self.power_save = False
        self.aid: Optional[int] = None
        self._ps_retrieving = False
        self._ps_guard = 2e-3
        self._ps_awake_window = 8e-3
        self._ps_doze_timer = Timer(self.sim, self._ps_try_doze)
        self._ps_wake_timer = Timer(self.sim, self._ps_wake)

    # --- hooks ------------------------------------------------------------

    def on_associated(self, hook: AssociationHook) -> Callable[[], None]:
        """Register an association hook; returns an unsubscribe callable
        (safe to call more than once)."""
        self._assoc_hooks.append(hook)

        def _unsubscribe() -> None:
            try:
                self._assoc_hooks.remove(hook)
            except ValueError:
                pass
        return _unsubscribe

    def on_disassociated(self, hook: Callable[[], None]) -> Callable[[], None]:
        """Register a disassociation hook; returns an unsubscribe callable."""
        self._disassoc_hooks.append(hook)

        def _unsubscribe() -> None:
            try:
                self._disassoc_hooks.remove(hook)
            except ValueError:
                pass
        return _unsubscribe

    @property
    def associated(self) -> bool:
        return self.state == StationState.ASSOCIATED

    # --- data path ------------------------------------------------------------

    def send(self, destination: MacAddress, payload: bytes,
             protected: bool = False, context: Any = None,
             priority: bool = False) -> bool:
        """Send an MSDU; via the AP in infrastructure mode.

        ``priority`` frames jump the interface queue (routing control
        traffic must not starve behind a saturated data backlog).
        """
        self.radio.wake()  # dozing stations wake to transmit
        if self.adhoc:
            return self.mac.send(destination, payload, protected=protected,
                                 context=context, priority=priority)
        if not self.associated:
            raise ProtocolError(f"{self.name} is not associated")
        return self.mac.send(destination, payload, protected=protected,
                             context=context, meta={"to_ds": True},
                             priority=priority)

    # --- power save (§4.2: PM bit, TIM, PS-Poll) --------------------------------

    def enable_power_save(self, awake_window: float = 8e-3,
                          guard: float = 2e-3) -> None:
        """Enter power-save: announce the PM bit, then doze between
        beacons, waking to read the TIM and PS-Poll buffered frames."""
        if not self.associated:
            raise ProtocolError("cannot enter power save while unassociated")
        self.power_save = True
        self._ps_awake_window = awake_window
        self._ps_guard = guard
        self.mac.power_management = True
        assert self.serving_ap is not None
        self.mac.send_null(self.serving_ap, power_management=True)
        self.sta_counters.incr("ps_enabled")
        self._schedule_ps_doze(delay=10e-3)

    def disable_power_save(self) -> None:
        """Leave power-save: wake for good and tell the AP (it flushes)."""
        if not self.power_save:
            return
        self.power_save = False
        self.mac.power_management = False
        self._ps_retrieving = False
        self._cancel_ps_timers()
        self.radio.wake()
        if self.associated and self.serving_ap is not None:
            self.mac.send_null(self.serving_ap, power_management=False)
        self.sta_counters.incr("ps_disabled")

    def _cancel_ps_timers(self) -> None:
        self._ps_doze_timer.cancel()
        self._ps_wake_timer.cancel()

    def _schedule_ps_doze(self, delay: float) -> None:
        self._ps_doze_timer.schedule(delay)

    def _beacon_interval_seconds(self) -> float:
        serving = self.tracker.get(self.serving_ap) \
            if self.serving_ap is not None else None
        interval_tu = serving.beacon_interval_tu if serving is not None \
            else 100
        return interval_tu * TU_SECONDS

    def _ps_try_doze(self) -> None:
        if not self.power_save or not self.associated:
            return
        if self._ps_retrieving or not self.mac.idle:
            self._schedule_ps_doze(delay=2e-3)
            return
        self.radio.sleep()
        interval = self._beacon_interval_seconds()
        next_beacon = self._last_beacon_from_serving + interval
        while next_beacon - self._ps_guard <= self.sim.now:
            next_beacon += interval
        self._ps_wake_timer.schedule(
            next_beacon - self._ps_guard - self.sim.now)

    def _ps_wake(self) -> None:
        if not self.power_save:
            return
        self.radio.wake()
        self._schedule_ps_doze(delay=self._ps_guard + self._ps_awake_window)

    def deliver_up(self, source: MacAddress, payload: bytes,
                   meta: Dict[str, Any]) -> None:
        if self.power_save and meta.get("from_ds"):
            if meta.get("more_data") and self.aid is not None:
                self.mac.send_ps_poll(self.aid)  # keep draining the buffer
            else:
                self._ps_retrieving = False
        super().deliver_up(source, payload, meta)

    # --- scanning ------------------------------------------------------------

    def start_scan(self, ssid: str, channels: Optional[List[int]] = None,
                   dwell: float = 0.15, active: bool = False) -> None:
        """Scan for ``ssid`` and associate with the strongest AP found.

        Passive (default): dwell on each channel collecting beacons.
        Active: additionally fire a directed probe request on arrival at
        each channel — probe responses come back immediately, so active
        scans work with much shorter dwells than a beacon interval.
        """
        if self.adhoc:
            raise ProtocolError("ad-hoc stations do not scan/associate")
        self.target_ssid = ssid
        self.state = StationState.SCANNING
        self._scan_channels = list(channels) if channels \
            else [self.radio.channel_id]
        self._scan_dwell = dwell
        self._scan_active = active
        self.sta_counters.incr("scans")
        self._scan_next_channel()

    def _scan_next_channel(self) -> None:
        if not self._scan_channels:
            self._finish_scan()
            return
        self.radio.channel_id = self._scan_channels.pop(0)
        if self._scan_active and self.target_ssid:
            self._send_probe_request(self.target_ssid)
        self._scan_timer.schedule(self._scan_dwell)

    def _send_probe_request(self, ssid: str) -> None:
        from ..mac.addresses import BROADCAST as _BROADCAST
        body = AssocRequestBody(capability=0, listen_interval=0,
                                ssid=ssid).encode()
        self.sta_counters.incr("probe_requests")
        self.mac.send_management(ManagementSubtype.PROBE_REQUEST,
                                 _BROADCAST, body)

    def _finish_scan(self) -> None:
        assert self.target_ssid is not None
        best = self.tracker.best(self.target_ssid)
        if best is None:
            # Nothing heard: retry after a beat, backing off on
            # consecutive misses (see RESCAN_BASE/RESCAN_CAP).
            self.sta_counters.incr("scan_empty")
            self._scan_failures += 1
            if self.max_scan_failures is not None and \
                    self._scan_failures >= self.max_scan_failures:
                # Scan timeout: the network is gone (dead AP, wrong
                # channel list).  Go IDLE instead of rescanning forever
                # — the caller decides whether/when to try again.
                self.sta_counters.incr("scan_abandoned")
                self.state = StationState.IDLE
                return
            delay = self.RESCAN_BASE
            if self._scan_failures > 1:
                if self._rescan_rng is None:
                    self._rescan_rng = self.sim.rng.stream(f"sta.{self.name}")
                delay = min(self.RESCAN_BASE * 2.0 ** (self._scan_failures - 1),
                            self.RESCAN_CAP)
                delay *= 0.5 + self._rescan_rng.random()
            self._rescan_timer.schedule(delay)
            return
        self._scan_failures = 0
        self._begin_authentication(best)

    def _retry_scan(self) -> None:
        self.start_scan(self.target_ssid or "", dwell=self._scan_dwell)

    def associate(self, ssid: str,
                  channels: Optional[List[int]] = None) -> None:
        """Join the (strongest AP of the) named network."""
        known = self.tracker.best(ssid)
        if known is not None:
            self.target_ssid = ssid
            self._begin_authentication(known)
        else:
            self.start_scan(ssid, channels=channels)

    # --- authentication & association -------------------------------------------

    def _begin_authentication(self, target: BeaconObservation) -> None:
        self._target_bssid = target.bssid
        self.radio.channel_id = target.channel
        self.state = StationState.AUTHENTICATING
        self._mgmt_attempts = 0
        self._send_auth()

    def _send_auth(self) -> None:
        assert self._target_bssid is not None
        self._mgmt_attempts += 1
        body = AuthBody(self.auth_algorithm, 1).encode()
        self.mac.send_management(ManagementSubtype.AUTHENTICATION,
                                 self._target_bssid, body)
        self._arm_mgmt_timer(self._send_auth)

    def _send_assoc_request(self) -> None:
        assert self._target_bssid is not None and self.target_ssid is not None
        self._mgmt_attempts += 1
        body = AssocRequestBody(capability=0, listen_interval=10,
                                ssid=self.target_ssid).encode()
        self.mac.send_management(ManagementSubtype.ASSOC_REQUEST,
                                 self._target_bssid, body)
        self._arm_mgmt_timer(self._send_assoc_request)

    def _arm_mgmt_timer(self, retry: Callable[[], None]) -> None:
        self._mgmt_retry = retry
        self._mgmt_timer.schedule(self.MGMT_TIMEOUT)

    def _cancel_mgmt_timer(self) -> None:
        self._mgmt_timer.cancel()

    def _mgmt_timeout(self) -> None:
        retry = self._mgmt_retry
        assert retry is not None
        if self._mgmt_attempts >= self.MGMT_RETRIES:
            # Give up on this AP; forget it and rescan.
            self.sta_counters.incr("mgmt_failures")
            if self._target_bssid is not None:
                self.tracker.forget(self._target_bssid)
            self._target_bssid = None
            if self.target_ssid is not None:
                self.start_scan(self.target_ssid, dwell=self._scan_dwell or 0.15)
            return
        retry()

    # --- management reception ----------------------------------------------------

    def mac_management(self, frame: Dot11Frame, snr_db: float) -> None:
        subtype = ManagementSubtype(frame.fc.subtype)
        if subtype in (ManagementSubtype.BEACON,
                       ManagementSubtype.PROBE_RESPONSE):
            self._handle_beacon(frame, snr_db)
        elif subtype == ManagementSubtype.AUTHENTICATION:
            self._handle_auth_response(frame)
        elif subtype in (ManagementSubtype.ASSOC_RESPONSE,
                         ManagementSubtype.REASSOC_RESPONSE):
            self._handle_assoc_response(frame)
        elif subtype in (ManagementSubtype.DISASSOCIATION,
                         ManagementSubtype.DEAUTHENTICATION):
            if frame.transmitter == self.serving_ap:
                self._link_lost("ap_kicked_us")

    def _handle_beacon(self, frame: Dot11Frame, snr_db: float) -> None:
        if frame.transmitter is None:
            return
        try:
            body = BeaconBody.decode(frame.body)
        except (FrameError, UnicodeDecodeError):
            # A truncated element or an SSID that is not UTF-8.
            self.sta_counters.incr("bad_beacons")
            return
        entry = self.tracker.observe(
            frame.transmitter, body.ssid,
            body.channel if body.channel is not None else self.radio.channel_id,
            body.capability, body.beacon_interval_tu, snr_db, self.sim.now)
        if self.associated and frame.transmitter == self.serving_ap:
            self._last_beacon_from_serving = self.sim.now
            if self.power_save and self.aid is not None and \
                    self.aid in body.tim_aids and not self._ps_retrieving:
                # The TIM names us: retrieve the buffered traffic.
                self._ps_retrieving = True
                self.sta_counters.incr("ps_polls")
                self.mac.send_ps_poll(self.aid)
        elif self.associated and body.ssid == self.target_ssid:
            self._consider_roaming(entry)

    def _handle_auth_response(self, frame: Dot11Frame) -> None:
        if self.state != StationState.AUTHENTICATING or \
                frame.transmitter != self._target_bssid:
            return
        auth = AuthBody.decode(frame.body)
        if auth.status != STATUS_SUCCESS:
            self._cancel_mgmt_timer()
            self.sta_counters.incr("auth_refused")
            self.state = StationState.IDLE
            return
        if auth.sequence == 2 and auth.challenge and \
                self._shared_key_client is not None:
            # Shared-key step 3: return the WEP-encrypted challenge.
            self._cancel_mgmt_timer()
            response = AuthBody(
                AUTH_SHARED_KEY, 3,
                challenge=self._shared_key_client.answer(auth.challenge))
            self.mac.send_management(ManagementSubtype.AUTHENTICATION,
                                     self._target_bssid, response.encode())
            self._arm_mgmt_timer(self._send_auth)
            return
        final_sequence = 4 if self.auth_algorithm == AUTH_SHARED_KEY else 2
        if auth.sequence != final_sequence:
            return
        self._cancel_mgmt_timer()
        self.state = StationState.ASSOCIATING
        self._mgmt_attempts = 0
        self._send_assoc_request()

    def _handle_assoc_response(self, frame: Dot11Frame) -> None:
        if self.state != StationState.ASSOCIATING or \
                frame.transmitter != self._target_bssid:
            return
        response = AssocResponseBody.decode(frame.body)
        self._cancel_mgmt_timer()
        if response.status != STATUS_SUCCESS:
            self.sta_counters.incr("assoc_refused")
            self.state = StationState.IDLE
            return
        previous = self.serving_ap
        self.serving_ap = self._target_bssid
        self.aid = response.association_id
        self._target_bssid = None
        assert self.serving_ap is not None
        self.mac.bssid = self.serving_ap
        self.state = StationState.ASSOCIATED
        self._last_beacon_from_serving = self.sim.now
        self.sta_counters.incr("associations")
        if previous is not None and previous != self.serving_ap:
            self.sta_counters.incr("roams")
            self._last_roam = self.sim.now
        self._start_link_monitor()
        for hook in self._assoc_hooks:
            hook(self.serving_ap)

    # --- roaming & link supervision --------------------------------------------

    def _consider_roaming(self, candidate: BeaconObservation) -> None:
        serving = self.tracker.get(self.serving_ap) \
            if self.serving_ap is not None else None
        serving_snr = serving.snr_db if serving is not None else -100.0
        if self.roaming.should_roam(serving_snr, candidate.snr_db,
                                    self.sim.now - self._last_roam):
            self.sta_counters.incr("roam_decisions")
            self._begin_authentication(candidate)

    def _start_link_monitor(self) -> None:
        if self._link_monitor is not None:
            self._link_monitor.cancel()
        serving = self.tracker.get(self.serving_ap) \
            if self.serving_ap is not None else None
        interval_tu = serving.beacon_interval_tu if serving is not None else 100
        period = interval_tu * TU_SECONDS
        self._link_monitor = PeriodicTask(self.sim, period,
                                          self._check_beacon_loss)

    def _check_beacon_loss(self) -> None:
        if not self.associated or self.serving_ap is None:
            return
        serving = self.tracker.get(self.serving_ap)
        interval_tu = serving.beacon_interval_tu if serving is not None else 100
        allowance = self.roaming.beacon_loss_limit * interval_tu * TU_SECONDS
        if self.sim.now - self._last_beacon_from_serving > allowance:
            self._link_lost("beacon_loss")

    def _link_lost(self, reason: str) -> None:
        self.sta_counters.incr(f"link_lost_{reason}")
        lost_bssid = self.serving_ap
        self.serving_ap = None
        self.state = StationState.IDLE
        if self._link_monitor is not None:
            self._link_monitor.cancel()
            self._link_monitor = None
        if lost_bssid is not None:
            self.tracker.forget(lost_bssid)
        for hook in self._disassoc_hooks:
            hook()
        if self.target_ssid is not None:
            self.start_scan(self.target_ssid, dwell=self._scan_dwell or 0.15)

    # --- fault injection ---------------------------------------------------------

    def crash(self) -> None:
        """Power loss: all volatile state dropped, radio off.

        Everything RAM-resident goes — the connection state machine,
        beacon observations, pending management retries, the MAC's
        queue and timers — and the radio powers off mid-whatever (an
        in-flight transmission is torn down, in-flight arrivals keep
        draining).  Disassociation hooks fire if we were associated, so
        traffic sources wired to them stop offering.  The configured
        ``target_ssid`` survives (it is configuration, not state) and
        drives the rescan on :meth:`restart`.
        """
        self.sta_counters.incr("crashes")
        was_associated = self.associated
        self._cancel_mgmt_timer()
        self._scan_timer.cancel()
        self._rescan_timer.cancel()
        self._cancel_ps_timers()
        if self._link_monitor is not None:
            self._link_monitor.cancel()
            self._link_monitor = None
        self.state = StationState.IDLE
        self.serving_ap = None
        self._target_bssid = None
        self._mgmt_retry = None
        self._mgmt_attempts = 0
        self._scan_channels = []
        self._scan_failures = 0
        self.aid = None
        self.power_save = False
        self._ps_retrieving = False
        self.tracker = BeaconTracker()
        self.mac.crash()
        self.mac.power_management = False
        if not self.adhoc:
            self.mac.bssid = self.address
        self.radio.power_off()
        if was_associated:
            for hook in tuple(self._disassoc_hooks):
                hook()

    def restart(self) -> None:
        """Boot after :meth:`crash`: power the radio on and, when an
        infrastructure SSID is configured, rescan for it."""
        self.sta_counters.incr("restarts")
        self.radio.power_on()
        if not self.adhoc and self.target_ssid is not None:
            self.start_scan(self.target_ssid, dwell=self._scan_dwell or 0.15)
