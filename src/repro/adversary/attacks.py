"""MAC-layer attack nodes: spoofed floods, evil twins, NAV abuse.

Where :mod:`repro.adversary.emitters` attacks the PHY with raw energy,
these attackers speak valid 802.11 — which is exactly why they work:
the classic management/control-plane weaknesses are that deauth frames
are unauthenticated, SSIDs are trivially cloned, and every station
honors the duration field of frames it merely overhears.

* :class:`FrameInjector` — the shared transmit primitive: a raw radio
  that injects arbitrary (spoofed) frames with CSMA-lite politeness,
  outside any MAC state machine.
* :class:`DeauthFlooder` — spoofs DEAUTHENTICATION frames from the AP
  to its stations (and/or from the stations to the AP), tearing
  associations down as fast as they re-form.
* :class:`RogueAp` — an evil twin: a real AP cloning the victim SSID
  to lure roaming stations onto attacker infrastructure.
* :class:`CtsNavAttacker` — CTS-to-self NAV abuse: periodic CTS frames
  with a near-maximum duration field freeze every honest contender's
  virtual carrier sense without jamming a single data frame.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence

from ..core.engine import Simulator, Timer
from ..core.errors import ConfigurationError
from ..core.stats import Counter
from ..core.topology import Position
from ..core.units import watts_to_dbm
from ..mac.addresses import BROADCAST, MacAddress, allocate_address
from ..mac.frames import (
    Dot11Frame,
    ManagementSubtype,
    SEQUENCE_MODULO,
    make_cts,
    make_management,
)
from ..net.ap import AccessPoint
from ..phy.channel import Medium
from ..phy.standards import PhyStandard, DOT11B
from ..phy.transceiver import Radio, RadioConfig, RadioState

#: Largest representable duration field value (µs): the NAV-abuse
#: payload.  32767 rather than 65535 because the standard reserves the
#: top bit for the CF period / PS-Poll AID encodings.
MAX_DURATION_US = 0x7FFF


class FrameInjector:
    """Raw-frame injection with CSMA-lite politeness.

    Attack tooling does not run a compliant MAC: no backoff state
    machine, no retries, no ACK handling.  The injector transmits a
    frame as soon as its radio is neither transmitting nor (optionally)
    sensing a busy medium, deferring by a short jittered pause
    otherwise — enough politeness for the attack frames to actually
    get on the air in a saturated cell, drawn from a named RNG stream
    so seeded runs reproduce the same injection schedule.
    """

    def __init__(self, sim: Simulator, medium: Medium,
                 standard: PhyStandard = DOT11B,
                 position: Position = Position(),
                 channel_id: int = 1, name: str = "injector",
                 respect_cca: bool = True,
                 defer_max: float = 200e-6,
                 queue_limit: int = 256,
                 radio_config: Optional[RadioConfig] = None):
        self.sim = sim
        self.name = name
        self.respect_cca = respect_cca
        self.defer_max = defer_max
        self.queue_limit = queue_limit
        self.counters = Counter()
        self.radio = Radio(name, medium, standard, position,
                           channel_id=channel_id, config=radio_config)
        # The injector transmits blind; it never needs to decode.
        self.radio.decodable_modes.clear()
        self.radio.on_tx_end = self._tx_end
        self._basic_mode = standard.mode_for_rate(standard.basic_rate_bps)
        self._queue: Deque[Dot11Frame] = deque()
        self._pump_timer = Timer(sim, self._pump)
        self._rng = sim.rng.stream(f"injector.{name}")

    @property
    def position(self) -> Position:
        return self.radio.position

    @property
    def pending(self) -> int:
        return len(self._queue)

    def inject(self, frame: Dot11Frame) -> bool:
        """Queue a frame for transmission at the next polite instant.

        Drop-tail at ``queue_limit``: a flood outrunning a saturated
        medium must not grow the backlog without bound.  Returns False
        on a drop.
        """
        if len(self._queue) >= self.queue_limit:
            self.counters.incr("queue_drops")
            return False
        self._queue.append(frame)
        if not self._pump_timer.armed and \
                self.radio.state is not RadioState.TX:
            self._pump()
        return True

    def _pump(self) -> None:
        if not self._queue:
            return
        radio = self.radio
        if radio.state is RadioState.TX or \
                (self.respect_cca and radio.cca_busy()):
            self.counters.incr("deferrals")
            self._pump_timer.schedule(self._rng.uniform(0.0, self.defer_max))
            return
        frame = self._queue.popleft()
        self.counters.incr("injected")
        # Through the transmit the radio was served, as a DcfMac sends:
        # the compiled twin for a plain radio on kernel="c".
        radio._transmit(radio, frame, frame.wire_size_bits(),
                        self._basic_mode)

    def _tx_end(self) -> None:
        # Half duplex: the next queued frame goes out only after this
        # one leaves the antenna (plus a polite jittered beat).
        if self._queue and not self._pump_timer.armed:
            self._pump_timer.schedule(self._rng.uniform(0.0, self.defer_max))


class DeauthFlooder:
    """Spoofed deauthentication flood against one BSS.

    Deauthentication frames are unauthenticated management frames — a
    station receiving one "from" its serving AP tears the link down
    (:meth:`repro.net.station.Station._link_lost`), and an AP receiving
    one "from" a station drops the association record.  The flooder
    forges the transmitter address accordingly:

    * ``toward="stations"`` — frames spoofed *from the AP*, to each
      target (or broadcast): kicks the clients.
    * ``toward="ap"`` — frames spoofed *from each station* to the AP:
      churns the AP's association table (the
      :meth:`~repro.net.ap.AccessPoint.deauthenticate` removal path).
    * ``toward="both"`` — both directions per round.
    """

    TOWARD = ("stations", "ap", "both")

    def __init__(self, sim: Simulator, injector: FrameInjector,
                 bssid: MacAddress,
                 targets: Optional[Sequence[MacAddress]] = None,
                 interval: float = 50e-3, toward: str = "stations",
                 name: str = "deauth-flood"):
        if toward not in self.TOWARD:
            raise ConfigurationError(
                f"toward must be one of {self.TOWARD}, got {toward!r}")
        if interval <= 0.0:
            raise ConfigurationError("interval must be positive")
        if toward in ("ap", "both") and not targets:
            # Station->AP frames need concrete station addresses to
            # spoof; only the stations direction has a broadcast
            # fallback.  Failing here beats a flooder that ticks
            # forever injecting nothing.
            raise ConfigurationError(
                f"toward={toward!r} requires explicit station targets")
        self.sim = sim
        self.injector = injector
        self.bssid = bssid
        self.targets: List[MacAddress] = list(targets) if targets else []
        self.interval = interval
        self.toward = toward
        self.name = name
        self.counters = Counter()
        self._sequence = 0
        self._tick_timer = Timer(sim, self._tick)
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._tick()

    def stop(self) -> None:
        self._active = False
        self._tick_timer.cancel()

    def _next_seq(self) -> int:
        sequence = self._sequence
        self._sequence = (self._sequence + 1) % SEQUENCE_MODULO
        return sequence

    def _tick(self) -> None:
        if not self._active:
            return
        if self.toward in ("stations", "both"):
            receivers: Iterable[MacAddress] = self.targets or (BROADCAST,)
            for receiver in receivers:
                self.counters.incr("deauths_spoofed")
                self.injector.inject(make_management(
                    ManagementSubtype.DEAUTHENTICATION,
                    transmitter=self.bssid, receiver=receiver,
                    bssid=self.bssid, body=b"",
                    sequence=self._next_seq()))
        if self.toward in ("ap", "both"):
            for station in self.targets:
                self.counters.incr("deauths_spoofed")
                self.injector.inject(make_management(
                    ManagementSubtype.DEAUTHENTICATION,
                    transmitter=station, receiver=self.bssid,
                    bssid=self.bssid, body=b"",
                    sequence=self._next_seq()))
        self._tick_timer.schedule(self.interval)


class RogueAp(AccessPoint):
    """An evil-twin access point cloning a victim network's SSID.

    It is a fully functional :class:`~repro.net.ap.AccessPoint` — it
    beacons, authenticates and associates like the real thing, which is
    the point: a station whose roaming policy sees a stronger same-SSID
    beacon (the rogue parks itself closer, or beacons hotter) will
    re-associate onto attacker infrastructure without noticing.
    Stations that took the bait are recorded in :attr:`lured`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lured: List[MacAddress] = []

    @classmethod
    def twin_of(cls, victim: AccessPoint, position: Position,
                power_advantage_db: float = 6.0,
                name: Optional[str] = None) -> "RogueAp":
        """Clone the victim's SSID/channel, beaconing hotter by
        ``power_advantage_db``.

        The victim's whole radio configuration rides along (CCA
        threshold, preamble floor, capture model) — only the transmit
        power differs, so any behavioral gap between twin and victim
        is the advertised power advantage and nothing else.
        """
        config = dataclasses.replace(
            victim.radio.config,
            tx_power_dbm=watts_to_dbm(victim.radio.tx_power_watts)
            + power_advantage_db)
        return cls(victim.sim, victim.radio.medium, victim.radio.standard,
                   position, name=name if name is not None else
                   f"rogue-{victim.name}",
                   channel_id=victim.radio.channel_id,
                   ssid=victim.ssid, radio_config=config)

    def _handle_assoc(self, sender: MacAddress, body: bytes) -> None:
        known = sender in self.associations
        super()._handle_assoc(sender, body)
        if not known and sender in self.associations:
            self.lured.append(sender)
            self.ap_counters.incr("stations_lured")


class CtsNavAttacker:
    """CTS-to-self NAV abuse: silence a cell with control frames.

    Every station sets its NAV from the duration field of frames not
    addressed to it — including a bare CTS whose RA is the attacker's
    own (spoofed) address.  A periodic CTS with a near-maximum duration
    therefore reserves the medium wall-to-wall: honest stations defer
    without a single collision, while the attacker spends a few hundred
    microseconds of airtime per reservation.  ``interval`` defaults to
    just inside the reservation so the NAV never lapses.
    """

    def __init__(self, sim: Simulator, injector: FrameInjector,
                 duration_us: int = MAX_DURATION_US,
                 interval: Optional[float] = None,
                 address: Optional[MacAddress] = None,
                 name: str = "cts-abuse"):
        if not 0 < duration_us <= MAX_DURATION_US:
            raise ConfigurationError(
                f"duration_us must be in (0, {MAX_DURATION_US}]")
        self.sim = sim
        self.injector = injector
        self.duration_us = duration_us
        #: RA of the self-addressed CTS (nobody answers; nobody needs to).
        self.address = address if address is not None else allocate_address()
        self.interval = interval if interval is not None \
            else duration_us * 1e-6 * 0.9
        self.name = name
        self.counters = Counter()
        self._tick_timer = Timer(sim, self._tick)
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._tick()

    def stop(self) -> None:
        self._active = False
        self._tick_timer.cancel()

    def _tick(self) -> None:
        if not self._active:
            return
        self.counters.incr("cts_sent")
        self.injector.inject(make_cts(self.address, self.duration_us))
        self._tick_timer.schedule(self.interval)
