"""The radio transceiver: TX/RX state machine, carrier sensing, capture.

A :class:`Radio` sits between the shared :class:`~repro.phy.channel.Medium`
and a MAC.  Its responsibilities:

* transmit frames handed down by the MAC (one at a time — half duplex),
* track every transmission currently incident on the antenna, lock onto
  at most one (reception), and integrate the rest as interference,
* run clear-channel assessment (CCA) and tell the MAC the instant the
  medium turns busy or idle — the DCF backoff freezes on these edges,
* decide frame delivery with the error model on the integrated SINR.

Upcalls to the MAC go through four direct slots —
:attr:`Radio.on_rx_end`, :attr:`Radio.on_tx_end`,
:attr:`Radio.on_cca_busy`, :attr:`Radio.on_cca_idle` — that the MAC
sets, so the hot path (every arrival edge of every frame, at every
co-channel radio) does a single attribute load and call.

:meth:`Radio.arrival_begins`, :meth:`Radio.arrival_ends` (with
``_try_lock``, the capture test, ``_refresh_interference`` and
``_update_cca``) and :meth:`Radio._reception_complete` are the
*reference* receive path, :meth:`Radio.transmit` (with the plan-hit path
of ``Medium.transmit``) and :meth:`Radio._tx_complete` the reference
transmit path; :data:`RADIO` is their binding table.  A MAC sends
through ``radio._transmit(radio, ...)`` and a transmission's end entry
fires ``radio._tx_done``: the served ``transmit`` and ``_tx_complete``.
On a C-kernel simulator a plain radio binds itself through
``repro.core.binding.bind`` to their compiled twins in
``repro.core._ckernel`` — the same statements
over the same ``__slots__``, the frame's (:class:`~repro.phy.channel.Transmission`),
its ``PhyMode``'s and ``Modulation``'s and this radio's ``RadioConfig``,
``CaptureModel`` and trace sink (``TraceLog`` or ``TraceDigest``)
included, all read by offset — which hand any step they do not handle
back to the method here: an aborted lock, an off-type field, an error
model not exactly ``BerErrorModel``, the trace record, and any of those
frames, modes or holders not exactly its class (``_try_lock`` for the
frame, mode or config, the capture test for the capture model, the PER
for the modulation, the whole tail for the frame, mode or trace sink,
the whole transmit for the mode, size or trace sink, and for a state or
mode this method refuses; the medium's own ``transmit`` for a medium
whose class overrides it or that holds its own, and
``_compile_plan`` for a plan miss).  A change to these methods changes
what ``tests/test_slot_differential.py`` and ``tests/phy/test_per_twin.py``
hold both to.
``sum(self._arrivals.values())`` here is the reference for every table
sum there: the twins fold the values in C, in whichever way returns this
interpreter's ``sum()`` bit for bit (``_ckernel.table_fold``;
``tests/phy/test_table_fold.py``), and call ``sum()`` where none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Optional, Set

from ..core.binding import Table, bind
from ..core.engine import Timer
from ..core.errors import SimulationError
from ..core.topology import Position
from ..core.trace import TraceDigest, TraceLog
from ..core.units import dbm_to_watts, linear_to_db, watts_to_dbm
from .channel import Medium, Transmission
from .error_models import BerErrorModel, ErrorModel
from .interference import CaptureModel, SinrTracker
from .modulation import Modulation
from .standards import PhyMode, PhyStandard


class RadioState(Enum):
    IDLE = "idle"
    RX = "rx"
    TX = "tx"
    SLEEP = "sleep"


def _ignore(*_args: Any) -> None:
    """What an upcall slot holds until a MAC sets it."""


@dataclass(slots=True)
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
                 "config", "error_model", "on_rx_end", "_edges",
                 "on_tx_end", "on_cca_busy", "on_cca_idle",
                 "on_state_change", "_state", "tx_power_watts",
                 "_noise_watts", "_cca_threshold_watts", "decodable_modes",
                 "_tx_mode_names", "_arrivals", "_locked", "_locked_power",
                 "_locked_tracker", "_cca_busy", "_sim", "_rng", "_trace",
                 "_rx_timer", "_capture", "_tracker", "_tx_epoch",
                 "_transmit", "_tx_done")

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
        # A reception finished (payload, success, snr_db, mode), our
        # transmission left the antenna, the medium turned busy / idle.
        self.on_rx_end: Callable[[Any, bool, float, PhyMode], None] = _ignore
        self.on_tx_end: Callable[[], None] = _ignore
        self.on_cca_busy: Callable[[], None] = _ignore
        self.on_cca_idle: Callable[[], None] = _ignore
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
        slots = bind(self, RADIO, medium.sim)
        #: ``(radio, arrival_begins, arrival_ends)``: the medium's fan-out.
        self._edges = (self, slots["arrival_begins"], slots["arrival_ends"])
        self._rx_timer = Timer(medium.sim, slots["_reception_complete"])
        #: What a MAC sends through, ``radio._transmit(radio, ...)``: the
        #: served ``transmit`` held unbound (see ``DcfMac._start_ifs``).
        self._transmit = slots["transmit"].__func__
        #: What a transmission's end entry fires: the served ``_tx_complete``.
        self._tx_done = slots["_tx_complete"]
        self._capture = self.config.capture
        # Pre-allocated SINR tracker, reset per lock (a radio locks at
        # most one frame at a time; the per-lock allocation showed up
        # in saturation profiles).
        self._tracker = SinrTracker(0.0, 0.0, 0.0)
        self._tx_epoch = 0
        medium.attach(self)

    # --- helpers ----------------------------------------------------------

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
        self._noise_watts = value

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
        self.state = RadioState.TX
        self._update_cca()
        duration = self.standard.frame_airtime(size_bits, mode)
        self.medium.transmit(self, payload, size_bits, mode, duration,
                             self.tx_power_watts)
        self._sim.schedule_fast(duration, self._tx_done, self._tx_epoch)
        if self._trace.enabled:
            self._trace_tx_start(size_bits, mode)
        return duration

    def _trace_tx_start(self, size_bits: int, mode: PhyMode) -> None:
        trace = self._trace
        if trace.wants("phy-tx-start"):
            trace.record(self._sim.now, self.name, "phy-tx-start",
                         bits=size_bits, mode=mode.name)

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
        self.state = RadioState.TX
        self._update_cca()
        self.medium.transmit_energy(
            self, duration,
            self.tx_power_watts if power_watts is None else power_watts)
        self._sim.schedule_fast(duration, self._tx_done, self._tx_epoch)
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
        self.state = RadioState.IDLE
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

        The arrival is tracked whatever the state; a sleeping radio
        senses nothing, so it stops there.  Otherwise the arrival may
        capture the lock, interferes with it, or is locked onto, and
        :meth:`_update_cca` takes the carrier-sense verdict after that.
        """
        self._arrivals[transmission] = power_watts
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
        self._update_cca()

    def arrival_ends(self, transmission: "Transmission") -> None:
        """A transmission's energy stops arriving (its airtime elapsed).

        The arrival leaves the table, a lock on another frame sees the
        interference drop, and :meth:`_update_cca` takes the
        carrier-sense verdict.
        """
        self._arrivals.pop(transmission, None)
        locked = self._locked
        if locked is not None and locked is not transmission:
            self._refresh_interference()
        self._update_cca()

    def _try_lock(self, transmission: "Transmission",
                  power_watts: float) -> None:
        # Kept as the historical dB-space comparison deliberately: a
        # linear-domain rewrite disagrees within a few ulp of the
        # threshold, which is enough to desynchronize a seeded run.
        noise = self._noise_watts
        snr_db = linear_to_db(power_watts / noise) if noise > 0 \
            else float("inf")
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
        tracker = self._tracker
        tracker.reset(power_watts, self._noise_watts, now, interference)
        self._locked_tracker = tracker
        self.state = RadioState.RX

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
        self.state = RadioState.IDLE
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

        The one definition of the busy verdict: transmitting or
        receiving is busy, a sleeping radio senses nothing, and an idle
        one compares the energy on its antenna with the CCA threshold.
        :meth:`_update_cca` and ``DcfMac._medium_idle`` ask it.
        """
        state = self._state
        if state is RadioState.TX or state is RadioState.RX:
            return True
        if state is RadioState.SLEEP:
            return False
        # An empty table sums to exactly 0 without calling sum().
        arrivals = self._arrivals
        return (sum(arrivals.values()) if arrivals else 0.0) \
            >= self._cca_threshold_watts

    def _update_cca(self) -> None:
        """Take the busy verdict; on a flip, tell the MAC."""
        busy = self.cca_busy()
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


#: What a medium delivers to a radio (receive edges, reception tail) and
#: what a radio sends through (transmit, transmit end).
RADIO = Table("Radio", "phy", {
    "Radio": Radio, "SinrTracker": SinrTracker, "CaptureModel": CaptureModel,
    "BerErrorModel": BerErrorModel, "Modulation": Modulation,
    "Transmission": Transmission, "Transmission._ids": Transmission._ids,
    "PhyMode": PhyMode,
    "RadioConfig": RadioConfig, "TraceLog": TraceLog,
    "TraceDigest": TraceDigest, "Medium": Medium,
    **{state.name: state for state in RadioState},
    **{f"{state.name}.value": state.value for state in RadioState}},
    lambda radio: (radio,), (Radio,),
    ("arrival_begins", "arrival_ends", "_reception_complete", "transmit",
     "_tx_complete"))
