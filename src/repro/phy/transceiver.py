"""The radio transceiver: TX/RX state machine, carrier sensing, capture.

A :class:`Radio` sits between the shared :class:`~repro.phy.channel.Medium`
and a MAC.  Its responsibilities:

* transmit frames handed down by the MAC (one at a time — half duplex),
* track every transmission currently incident on the antenna, lock onto
  at most one (reception), and integrate the rest as interference,
* run clear-channel assessment (CCA) and tell the MAC the instant the
  medium turns busy or idle — the DCF backoff freezes on these edges,
* decide frame delivery with the error model on the integrated SINR.

Upcalls to the MAC go through four direct bound-method slots —
:attr:`Radio.on_rx_end`, :attr:`Radio.on_tx_end`,
:attr:`Radio.on_cca_busy`, :attr:`Radio.on_cca_idle` — so the hot path
(every arrival edge of every frame, at every co-channel radio) does a
single attribute load and call instead of walking through a listener
object.  The classic :class:`PhyListener` interface remains as the
convenience surface: assigning :attr:`Radio.listener` rebinds all four
slots from the listener's methods.

:meth:`Radio.arrival_begins`, :meth:`Radio.arrival_ends` (with
``_try_lock``, the capture test, ``_refresh_interference`` and the CCA
tail) and :meth:`Radio._reception_complete` are the *reference* receive
path.  On a C-kernel simulator the medium binds a plain radio
to their compiled twins in ``repro.core._ckernel`` — the same statements
over the same ``__slots__`` — which hand any step they do not handle (an
aborted lock, an off-type field, an error model that is not exactly
``BerErrorModel``, the trace record) back to the method here: a change to
these methods changes what ``tests/phy/test_edge_parity.py`` holds both to.
``sum(self._arrivals.values())`` here is the reference for every table
sum there: the twins fold the values in C, in whichever way returns this
interpreter's ``sum()`` bit for bit (``_ckernel.table_fold``;
``tests/phy/test_table_fold.py``), and call ``sum()`` where none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Set, TYPE_CHECKING

from ..core.engine import Timer
from ..core.errors import SimulationError
from ..core.topology import Position
from ..core.units import dbm_to_watts, linear_to_db, watts_to_dbm
from .error_models import BerErrorModel, ErrorModel
from .interference import CaptureModel, SinrTracker
from .standards import PhyMode, PhyStandard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .channel import Medium, Transmission


class RadioState(Enum):
    IDLE = "idle"
    RX = "rx"
    TX = "tx"
    SLEEP = "sleep"


class PhyListener:
    """Upcall interface the MAC implements.  Default methods are no-ops
    so simple listeners only override what they need.

    Assigning an instance to :attr:`Radio.listener` copies its four
    bound methods into the radio's direct upcall slots; overriding a
    listener method *after* assignment therefore requires re-assigning
    the listener (or setting the slot directly)."""

    def phy_rx_end(self, payload: Any, success: bool, snr_db: float,
                   mode: PhyMode) -> None:
        """A locked reception finished; ``success`` reflects the error model."""

    def phy_tx_end(self) -> None:
        """Our own transmission left the antenna completely."""

    def phy_cca_busy(self) -> None:
        """Medium transitioned idle -> busy."""

    def phy_cca_idle(self) -> None:
        """Medium transitioned busy -> idle."""


@dataclass
class RadioConfig:
    """Tunable radio parameters (defaults follow common 802.11 practice)."""

    tx_power_dbm: Optional[float] = None  # None -> standard default
    #: Energy-detection CCA threshold.
    cca_threshold_dbm: float = -82.0
    #: SNR needed to detect/lock a preamble.
    preamble_detection_snr_db: float = 0.0
    capture: CaptureModel = CaptureModel()


class Radio:
    """Half-duplex radio bound to one medium, one standard, one channel."""

    __slots__ = ("name", "medium", "standard", "_position", "_channel_id",
                 "config", "error_model", "_listener", "on_rx_end",
                 "on_tx_end", "on_cca_busy", "on_cca_idle",
                 "on_state_change", "_state", "tx_power_watts",
                 "_noise_watts", "_cca_threshold_watts", "decodable_modes",
                 "_tx_mode_names", "_arrivals", "_locked", "_locked_power",
                 "_locked_tracker", "_cca_busy", "_sim", "_rng", "_trace",
                 "_rx_timer", "_capture", "_snr_cache", "_tracker",
                 "_tx_epoch")

    def __init__(self, name: str, medium: "Medium", standard: PhyStandard,
                 position: Position, channel_id: int = 1,
                 config: Optional[RadioConfig] = None,
                 error_model: Optional[ErrorModel] = None):
        self.name = name
        self.medium = medium
        self.standard = standard
        self._position = position
        self._channel_id = channel_id
        self.config = config if config is not None else RadioConfig()
        self.error_model = error_model if error_model is not None else BerErrorModel()
        # Direct upcall slots — the flattened hot path.  `listener`
        # below rebinds all four from a PhyListener-style object.
        self._listener: PhyListener = PhyListener()
        self.on_rx_end: Callable[[Any, bool, float, PhyMode], None] = \
            self._listener.phy_rx_end
        self.on_tx_end: Callable[[], None] = self._listener.phy_tx_end
        self.on_cca_busy: Callable[[], None] = self._listener.phy_cca_busy
        self.on_cca_idle: Callable[[], None] = self._listener.phy_cca_idle
        #: Optional hook fired with the new state name on every radio
        #: state transition (used by the energy meter).
        self.on_state_change = None
        self._state = RadioState.IDLE
        tx_dbm = (self.config.tx_power_dbm
                  if self.config.tx_power_dbm is not None
                  else standard.default_tx_power_dbm)
        self.tx_power_watts = dbm_to_watts(tx_dbm)
        self._noise_watts = standard.noise_floor_watts
        self._cca_threshold_watts = dbm_to_watts(self.config.cca_threshold_dbm)
        #: Mode names this radio can decode; starts as the standard's own
        #: ladder and may be extended (e.g. a "mixed-mode" 802.11g radio
        #: also decodes 802.11b DSSS/CCK frames).
        self.decodable_modes: Set[str] = {mode.name for mode in standard.modes}
        self._tx_mode_names = {mode.name for mode in standard.modes}
        # Arrivals currently incident on the antenna: transmission -> rx power.
        self._arrivals: Dict["Transmission", float] = {}
        # The transmission currently locked for reception (plus its
        # receive power and SINR tracker, flattened into slots).
        self._locked: Optional["Transmission"] = None
        self._locked_power = 0.0
        self._locked_tracker: Optional[SinrTracker] = None
        self._cca_busy = False
        self._sim = medium.sim
        self._rng = medium.sim.rng.stream(f"radio.{name}")
        self._trace = medium.sim.trace
        self._rx_timer = Timer(medium.sim, medium._rx_tail(self))
        self._capture = self.config.capture
        # Memoized preamble SNR per exact receive power (pure function
        # of power/noise; static links repeat the same few powers).
        self._snr_cache: Dict[float, float] = {}
        # Pre-allocated SINR tracker, reset per lock (a radio locks at
        # most one frame at a time; the per-lock allocation showed up
        # in saturation profiles).
        self._tracker = SinrTracker(0.0, 0.0, 0.0)
        self._tx_epoch = 0
        medium.attach(self)

    # --- helpers ----------------------------------------------------------

    @property
    def listener(self) -> PhyListener:
        """The registered upcall object (compatibility surface)."""
        return self._listener

    @listener.setter
    def listener(self, value: PhyListener) -> None:
        """Register a listener by copying its methods into the direct
        upcall slots (the hot path never touches the listener object)."""
        self._listener = value
        self.on_rx_end = value.phy_rx_end
        self.on_tx_end = value.phy_tx_end
        self.on_cca_busy = value.phy_cca_busy
        self.on_cca_idle = value.phy_cca_idle

    @property
    def position(self) -> Position:
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        """Move the radio; invalidates this radio's cached link budgets."""
        if value is self._position:
            return
        self._position = value
        self.medium.invalidate_links(self)

    @property
    def noise_watts(self) -> float:
        return self._noise_watts

    @noise_watts.setter
    def noise_watts(self, value: float) -> None:
        """Change the noise floor; invalidates the memoized preamble
        SNRs (which are pure functions of power / noise)."""
        if value == self._noise_watts:
            return
        self._noise_watts = value
        self._snr_cache.clear()

    @property
    def channel_id(self) -> int:
        return self._channel_id

    @channel_id.setter
    def channel_id(self, value: int) -> None:
        """Retune; invalidates the medium's per-channel receiver lists."""
        if value == self._channel_id:
            return
        self._channel_id = value
        self.medium.invalidate_channels()

    @property
    def state(self) -> RadioState:
        return self._state

    @state.setter
    def state(self, value: RadioState) -> None:
        if value is self._state:
            return
        self._state = value
        if self.on_state_change is not None:
            self.on_state_change(value.value)

    @property
    def sim(self):
        return self._sim

    def allow_decoding(self, standard: PhyStandard) -> None:
        """Additionally decode another standard's modes (b/g coexistence)."""
        self.decodable_modes.update(mode.name for mode in standard.modes)

    def total_incident_power_watts(self) -> float:
        return sum(self._arrivals.values())

    # --- transmit path ------------------------------------------------------

    def transmit(self, payload: Any, size_bits: int, mode: PhyMode) -> float:
        """Send a frame; returns its airtime.  MAC must be idle/decided."""
        state = self._state
        if state is RadioState.TX:
            raise SimulationError(f"{self.name}: transmit while already in TX")
        if state is RadioState.SLEEP:
            raise SimulationError(f"{self.name}: transmit while asleep")
        if mode.name not in self._tx_mode_names:
            raise SimulationError(
                f"{self.name}: mode {mode.name} not in {self.standard.name}")
        # Transmitting aborts any in-progress reception (half duplex).
        if self._locked is not None:
            self._abort_locked()
        # state-property setter inlined on the TX/RX hot transitions:
        # these are always real state changes, so only the upcall check
        # remains (KEEP IN SYNC with the state setter).
        self._state = RadioState.TX
        if self.on_state_change is not None:
            self.on_state_change(RadioState.TX.value)
        self._update_cca()
        duration = self.standard.frame_airtime(size_bits, mode)
        self.medium.transmit(self, payload, size_bits, mode, duration,
                             self.tx_power_watts)
        self._sim.schedule_fast(duration, self._tx_complete, self._tx_epoch)
        trace = self._trace
        if trace.enabled and trace.wants("phy-tx-start"):
            trace.record(self._sim.now, self.name, "phy-tx-start",
                         bits=size_bits, mode=mode.name)
        return duration

    def transmit_energy(self, duration: float,
                        power_watts: Optional[float] = None) -> float:
        """Emit a burst of raw, non-decodable energy (jamming).

        The burst is fanned out through
        :meth:`~repro.phy.channel.Medium.transmit_energy`: co-channel
        radios see it as CCA energy and interference but never lock
        onto it.  The radio itself goes half-duplex TX for the burst —
        it cannot carrier-sense while jamming, exactly like a frame
        transmission — and fires :attr:`on_tx_end` when done.
        """
        state = self._state
        if state is RadioState.TX:
            raise SimulationError(
                f"{self.name}: transmit_energy while already in TX")
        if state is RadioState.SLEEP:
            raise SimulationError(
                f"{self.name}: transmit_energy while asleep")
        if duration <= 0.0:
            raise SimulationError(
                f"{self.name}: energy burst needs a positive duration")
        if self._locked is not None:
            self._abort_locked()
        self._state = RadioState.TX  # state setter inlined (see transmit)
        if self.on_state_change is not None:
            self.on_state_change(RadioState.TX.value)
        self._update_cca()
        self.medium.transmit_energy(
            self, duration,
            self.tx_power_watts if power_watts is None else power_watts)
        self._sim.schedule_fast(duration, self._tx_complete, self._tx_epoch)
        trace = self._trace
        if trace.enabled and trace.wants("phy-energy-start"):
            trace.record(self._sim.now, self.name, "phy-energy-start",
                         duration=duration)
        return duration

    def _tx_complete(self, epoch: int = 0) -> None:
        if epoch != self._tx_epoch:
            # A power_off() mid-burst already tore the transmission down;
            # this is the stale completion event draining out of the heap
            # (schedule_fast events cannot be cancelled, only outlived).
            return
        self._state = RadioState.IDLE  # state setter inlined (TX -> IDLE)
        if self.on_state_change is not None:
            self.on_state_change(RadioState.IDLE.value)
        self._update_cca()
        self.on_tx_end()

    # --- sleep ------------------------------------------------------------

    def sleep(self) -> None:
        """Power down: no reception, no carrier sense."""
        if self.state == RadioState.TX:
            raise SimulationError(f"{self.name}: cannot sleep mid-transmission")
        if self._locked is not None:
            self._abort_locked()
        self.state = RadioState.SLEEP

    def wake(self) -> None:
        if self.state == RadioState.SLEEP:
            self.state = RadioState.IDLE
            self._update_cca()
            # A MAC that queued frames while asleep never saw a CCA
            # edge (sleeping radios do not contend), so kick it if the
            # medium is quiet — _update_cca above only fires on a
            # busy/idle *transition*, and idle->idle is no transition.
            if not self._cca_busy:
                self.on_cca_idle()

    # --- fault injection ----------------------------------------------------

    def power_off(self) -> None:
        """Hard power loss (fault injection): unlike :meth:`sleep`, legal
        mid-transmission.

        A burst that already left the antenna keeps propagating — its
        arrival edges are in the heap and drain at every receiver on
        their own — but our TX-complete upcall is suppressed by bumping
        the TX epoch (``schedule_fast`` events cannot be cancelled), and
        any locked reception is aborted.  Arrivals keep being *tracked*
        while powered off exactly as in SLEEP: the table must stay
        consistent so in-flight energy drains and a later
        :meth:`power_on` resumes carrier sense from truthful state.
        """
        if self._state is RadioState.TX:
            self._tx_epoch += 1
        if self._locked is not None:
            self._abort_locked()
        self.state = RadioState.SLEEP
        trace = self._trace
        if trace.enabled and trace.wants("phy-power-off"):
            trace.record(self._sim.now, self.name, "phy-power-off")

    def power_on(self) -> None:
        """Boot after :meth:`power_off` (delegates to :meth:`wake`)."""
        self.wake()

    # --- receive path (called by the Medium) --------------------------------

    def arrival_begins(self, transmission: "Transmission",
                       power_watts: float) -> None:
        """A transmission's energy starts arriving at our antenna.

        The hottest callback in any run (once per frame per co-channel
        radio); ``_update_cca`` is inlined at the tail (KEEP IN SYNC).
        Single-arrival edges skip the full table re-sum: ``sum([x])``
        is ``0.0 + x``, which is bit-identical to ``x`` for the
        non-negative powers the medium delivers, so the shortcut is
        exact, not approximate.
        """
        arrivals = self._arrivals
        arrivals[transmission] = power_watts
        state = self._state
        if state is RadioState.SLEEP:
            return
        if self._locked is not None:
            if self._capture.should_capture(self._locked_power,
                                            power_watts):
                self._abort_locked()
                self._try_lock(transmission, power_watts)
            else:
                self._refresh_interference()
        elif state is RadioState.IDLE:
            self._try_lock(transmission, power_watts)
        state = self._state
        if state is RadioState.TX or state is RadioState.RX:
            busy = True
        elif len(arrivals) == 1:
            busy = power_watts >= self._cca_threshold_watts
        else:
            busy = sum(arrivals.values()) >= self._cca_threshold_watts
        if busy != self._cca_busy:
            self._cca_busy = busy
            if busy:
                self.on_cca_busy()
            else:
                self.on_cca_idle()

    def arrival_ends(self, transmission: "Transmission") -> None:
        """A transmission's energy stops arriving (its airtime elapsed).

        ``_update_cca`` inlined at the tail (KEEP IN SYNC).  An emptied
        arrival table short-circuits the re-sum (``sum([])`` is exactly
        ``0.0``).
        """
        arrivals = self._arrivals
        arrivals.pop(transmission, None)
        locked = self._locked
        if locked is not None and locked is not transmission:
            self._refresh_interference()
        state = self._state
        if state is RadioState.TX or state is RadioState.RX:
            busy = True
        elif state is RadioState.SLEEP:
            busy = False
        elif not arrivals:
            busy = 0.0 >= self._cca_threshold_watts
        else:
            busy = sum(arrivals.values()) >= self._cca_threshold_watts
        if busy != self._cca_busy:
            self._cca_busy = busy
            if busy:
                self.on_cca_busy()
            else:
                self.on_cca_idle()

    def _try_lock(self, transmission: "Transmission",
                  power_watts: float) -> None:
        # Kept as the historical dB-space comparison deliberately: a
        # linear-domain rewrite disagrees within a few ulp of the
        # threshold, which is enough to desynchronize a seeded run.
        # Memoized on the exact receive power (one log10 per distinct
        # link budget instead of one per arrival).
        try:
            snr_db = self._snr_cache[power_watts]
        except KeyError:
            snr_db = linear_to_db(power_watts / self.noise_watts) \
                if self.noise_watts > 0 else float("inf")
            if len(self._snr_cache) >= 4096:
                self._snr_cache.clear()
            self._snr_cache[power_watts] = snr_db
        if snr_db < self.config.preamble_detection_snr_db:
            return  # too weak to even see a preamble: pure noise
        if transmission.mode.name not in self.decodable_modes:
            return  # foreign PHY: energy only
        sim = self._sim
        arrivals = self._arrivals
        # _try_lock only runs from arrival_begins, so the new arrival is
        # already in the table; when it is the only one the re-sum
        # collapses to exactly 0.0 (sum([x]) - x == (0.0 + x) - x).
        if len(arrivals) == 1:
            interference = 0.0
        else:
            interference = sum(arrivals.values()) - power_watts
        # _try_lock only ever runs at the instant the energy starts
        # arriving, so the frame's tail lands exactly one airtime later
        # (the propagation delay shifted the whole frame, not its
        # length); airtime is a positive finite float, so the unchecked
        # arm is safe.
        now = sim._now
        sim._arm(self._rx_timer, now + transmission.duration)
        self._locked = transmission
        self._locked_power = power_watts
        # The pre-allocated tracker re-initialized in place, field for
        # field as SinrTracker.__init__ sets it (KEEP IN SYNC): one lock
        # per decoded frame per receiver, and the stores are all there is.
        tracker = self._tracker
        tracker.signal_watts = power_watts
        tracker.noise_watts = self._noise_watts
        tracker._start = now
        tracker._last_time = now
        tracker._current_interference = interference
        tracker._energy = 0.0
        self._locked_tracker = tracker
        self._state = RadioState.RX  # state setter inlined (IDLE -> RX)
        if self.on_state_change is not None:
            self.on_state_change(RadioState.RX.value)

    def _refresh_interference(self) -> None:
        locked = self._locked
        if locked is None:
            return
        arrivals = self._arrivals
        if len(arrivals) == 1 and locked in arrivals:
            # Only the locked signal is on the air: the historical
            # expression sum([locked_power]) - locked_power is exactly
            # 0.0, so skip the re-sum.
            interference = 0.0
        else:
            interference = sum(arrivals.values()) - self._locked_power
            # The locked signal may have already left the arrival table
            # if it ended; guard against a small negative residue (the
            # `< 0.0` branch keeps -0.0 exactly as max(x, 0.0) did).
            if interference < 0.0:
                interference = 0.0
        tracker = self._locked_tracker
        if interference == 0.0 and tracker._current_interference == 0.0:
            # A zero->zero update only moves the tracker's last-update
            # time across a segment that accrues 0.0 energy either way;
            # skipping it leaves every later energy sum bit-identical.
            return
        tracker.set_interference(self._sim._now, interference)

    def _abort_locked(self) -> None:
        assert self._locked is not None
        self._rx_timer.cancel()
        self._locked = None
        self._locked_tracker = None
        if self.state == RadioState.RX:
            self.state = RadioState.IDLE

    def _reception_complete(self) -> None:
        transmission = self._locked
        if transmission is None:
            return  # lock was aborted meanwhile (defensive; timer cancels)
        tracker = self._locked_tracker
        self._locked = None
        self._locked_tracker = None
        self._state = RadioState.IDLE  # state setter inlined (RX -> IDLE)
        if self.on_state_change is not None:
            self.on_state_change(RadioState.IDLE.value)
        now = self._sim._now
        snr_db = tracker.sinr_db(now)
        success = self.error_model.frame_survives(
            snr_db, transmission.size_bits, transmission.mode.modulation,
            self._rng)
        if self._trace.enabled:
            self._trace_rx_end(now, transmission, success, snr_db)
        # IDLE: the table decides.  The idle edge fires *before* on_rx_end
        # (recorded defect: tests/mac/test_virtual_carrier_sense.py).
        self._update_cca()
        self.on_rx_end(transmission.payload, success, snr_db,
                       transmission.mode)

    def _trace_rx_end(self, now: float, transmission: "Transmission",
                      success: bool, snr_db: float) -> None:
        trace = self._trace
        if trace.wants("phy-rx-end"):
            trace.record(now, self.name, "phy-rx-end",
                         ok=success, snr=round(snr_db, 1),
                         mode=transmission.mode.name)

    # --- CCA ---------------------------------------------------------------

    def cca_busy(self) -> bool:
        """Clear-channel assessment: is the medium busy right now?

        KEEP IN SYNC with the flattened copies of this predicate in
        :meth:`_update_cca` below and ``DcfMac._medium_idle`` — they
        avoid the method-call layers on the per-arrival hot path.
        """
        state = self._state
        if state is RadioState.TX or state is RadioState.RX:
            return True
        if state is RadioState.SLEEP:
            return False
        return sum(self._arrivals.values()) >= self._cca_threshold_watts

    def _update_cca(self) -> None:
        # cca_busy() inlined: this runs on every arrival edge.
        # KEEP IN SYNC with cca_busy() and DcfMac._medium_idle.
        state = self._state
        if state is RadioState.TX or state is RadioState.RX:
            busy = True
        elif state is RadioState.SLEEP:
            busy = False
        else:
            arrivals = self._arrivals
            if not arrivals:
                busy = 0.0 >= self._cca_threshold_watts
            else:
                busy = sum(arrivals.values()) >= self._cca_threshold_watts
        if busy == self._cca_busy:
            return
        self._cca_busy = busy
        if busy:
            self.on_cca_busy()
        else:
            self.on_cca_idle()

    # --- introspection -------------------------------------------------------

    def snr_from_dbm(self, rx_power_dbm: float) -> float:
        """SNR this radio would see for a given receive power."""
        return rx_power_dbm - watts_to_dbm(self.noise_watts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Radio {self.name} {self.standard.name} ch={self.channel_id} "
                f"state={self.state.value}>")
