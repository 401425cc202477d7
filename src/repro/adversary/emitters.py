"""Non-decodable RF energy sources: jammers and coexistence interferers.

Every emitter here drives the medium's energy-only transmission path
(:meth:`~repro.phy.channel.Medium.transmit_energy`): its bursts carry
power but no frame, so co-channel radios integrate them into CCA and
interference accounting without ever locking onto them.  Emitters
are *transmit-only* senders by default
(an :class:`EnergySource`, not an attached
:class:`~repro.phy.transceiver.Radio`), so the medium never fans frames
out **to** them: a field of twenty jammers adds zero per-frame receive
events beyond the victims' own.

The profiles:

* :class:`ConstantJammer` — barrage noise, back-to-back bursts.
* :class:`PeriodicJammer` — duty-cycled pulse jammer (on/period).
* :class:`SweepingJammer` — hops a channel list, dwelling per channel.
* :class:`ReactiveJammer` — carrier-senses with a real radio and stomps
  the tail of any transmission whose CCA edge it detects.
* :class:`BluetoothHopper` — coexistence bystander reusing the
  :mod:`repro.wpan.bluetooth` TDD slot timing: a 79-hop FHSS device
  whose hops land in the victim channel's passband a fixed fraction of
  the time.
* :class:`MicrowaveOven` — broadband mains-synchronous burst source
  splattering several channels at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.engine import Simulator, Timer
from ..core.errors import ConfigurationError
from ..core.stats import Counter
from ..core.topology import Position
from ..core.units import dbm_to_watts
from ..phy.channel import Medium
from ..phy.standards import PhyStandard, DOT11B
from ..phy.transceiver import Radio, RadioConfig, RadioState
from ..wpan.bluetooth import SLOT_TIME as BT_SLOT_TIME

#: Bluetooth hops its 1 MHz carrier over 79 channels; a 22 MHz DSSS
#: victim channel therefore swallows 22 of them (the classic 2.4 GHz
#: coexistence overlap fraction).
BT_HOP_CHANNELS = 79
BT_OVERLAP_CHANNELS = 22
#: TX portion of a single-slot Bluetooth packet (access code + header +
#: DH1 payload at 1 Mb/s), the rest of the 625 us slot is turnaround.
BT_TX_TIME = 366e-6


class EnergySource:
    """A minimal transmit-only sender for the medium's energy path.

    Exposes exactly the sender surface
    :meth:`~repro.phy.channel.Medium.transmit` needs — ``name``,
    ``position`` / ``_position``, ``_channel_id`` — without being an
    attached radio, so it never appears in any receiver list and adds
    no per-frame cost to the victims' traffic.  Moving invalidates its
    cached link budgets; retuning drops only its own compiled fan-out
    plan (:meth:`~repro.phy.channel.Medium.invalidate_plan`), so a
    frequency hopper does not force a global plan flush per hop.
    """

    __slots__ = ("name", "medium", "_position", "_channel_id",
                 "power_watts")

    def __init__(self, name: str, medium: Medium, position: Position,
                 channel_id: int = 1, power_dbm: float = 20.0):
        self.name = name
        self.medium = medium
        self._position = position
        self._channel_id = channel_id
        self.power_watts = dbm_to_watts(power_dbm)

    @property
    def position(self) -> Position:
        return self._position

    @position.setter
    def position(self, value: Position) -> None:
        if value is self._position:
            return
        self._position = value
        self.medium.invalidate_links(self)

    @property
    def channel_id(self) -> int:
        return self._channel_id

    @channel_id.setter
    def channel_id(self, value: int) -> None:
        if value == self._channel_id:
            return
        self._channel_id = value
        self.medium.invalidate_plan(self)

    def emit(self, duration: float) -> None:
        """Fan one energy burst out to the audible co-channel radios."""
        self.medium.transmit_energy(self, duration, self.power_watts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EnergySource {self.name} ch={self._channel_id}>"


class Emitter:
    """Base class: an :class:`EnergySource` plus start/stop and stats.

    The burst chain rides a reusable kernel
    :class:`~repro.core.engine.Timer` so :meth:`stop` cancels the
    pending tick outright — a stop/start toggle (attack-phase studies
    switch emitters on and off mid-run) must never leave a stale tick
    in the heap to double the chain.
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channel_id: int = 1, power_dbm: float = 20.0,
                 name: str = "emitter"):
        self.sim = sim
        self.name = name
        self.source = EnergySource(name, medium, position,
                                   channel_id=channel_id,
                                   power_dbm=power_dbm)
        self.counters = Counter()
        self._tick_timer = Timer(sim, self._tick)
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    @property
    def channel_id(self) -> int:
        return self.source.channel_id

    @property
    def position(self) -> Position:
        return self.source.position

    def airtime_seconds(self) -> float:
        """Seconds of energy emitted so far."""
        return self.counters.get("airtime_us") * 1e-6

    def duty_cycle(self) -> float:
        """Fraction of the elapsed run this emitter was on the air."""
        now = self.sim.now
        return self.airtime_seconds() / now if now > 0.0 else 0.0

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._begin()

    def stop(self) -> None:
        self._active = False
        self._tick_timer.cancel()

    def _begin(self) -> None:
        raise NotImplementedError

    def _tick(self) -> None:
        raise NotImplementedError

    def _burst(self, duration: float) -> None:
        self.counters.incr("bursts")
        self.counters.incr("airtime_us", int(round(duration * 1e6)))
        self._emit(duration)

    def _emit(self, duration: float) -> None:
        """The actual energy release; multi-source emitters override."""
        self.source.emit(duration)


class ConstantJammer(Emitter):
    """Barrage jammer: continuous noise, modelled as chained bursts.

    One long burst per ``burst_duration`` keeps the event cost O(1) per
    burst instead of per symbol.  Each burst outlives its re-arm tick by
    :attr:`OVERLAP` so consecutive bursts genuinely overlap on the air —
    without it the previous end edge and the next begin edge land on
    the same instant (end first, by scheduling order) and every seam
    would flash a zero-duration idle/busy edge pair at each receiver.
    """

    #: Seam overlap between chained bursts (1 ns: far below any slot
    #: or propagation timescale, enough to keep CCA pinned busy).
    OVERLAP = 1e-9

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channel_id: int = 1, power_dbm: float = 20.0,
                 burst_duration: float = 10e-3, name: str = "jam-const"):
        super().__init__(sim, medium, position, channel_id=channel_id,
                         power_dbm=power_dbm, name=name)
        if burst_duration <= 0.0:
            raise ConfigurationError("burst_duration must be positive")
        self.burst_duration = burst_duration

    def _begin(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if not self._active:
            return
        self._burst(self.burst_duration + self.OVERLAP)
        self._tick_timer.schedule(self.burst_duration)


class PeriodicJammer(Emitter):
    """Duty-cycled pulse jammer: ``on_time`` of noise every ``period``.

    ``offset`` staggers the first pulse so a field of identical jammers
    interleaves instead of pulsing in lockstep — the knob the
    interference-field macro uses to keep many bursts genuinely
    overlapping.
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channel_id: int = 1, power_dbm: float = 20.0,
                 on_time: float = 1e-3, period: float = 2e-3,
                 offset: float = 0.0, name: str = "jam-pulse"):
        super().__init__(sim, medium, position, channel_id=channel_id,
                         power_dbm=power_dbm, name=name)
        if on_time <= 0.0 or period <= 0.0:
            raise ConfigurationError("on_time and period must be positive")
        if on_time > period:
            raise ConfigurationError("on_time cannot exceed period")
        self.on_time = on_time
        self.period = period
        self.offset = offset

    @property
    def duty(self) -> float:
        return self.on_time / self.period

    def _begin(self) -> None:
        self._tick_timer.schedule(self.offset)

    def _tick(self) -> None:
        if not self._active:
            return
        self._burst(self.on_time)
        self._tick_timer.schedule(self.period)


class SweepingJammer(Emitter):
    """Multi-channel sweep: dwell on each channel in turn, jamming it.

    Each dwell is one energy burst on the current channel followed by a
    retune — the retune invalidates only this sender's compiled plan,
    so sweeping across a busy band does not recompile the victims'.
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channels: Sequence[int] = (1, 6, 11),
                 dwell: float = 2e-3, power_dbm: float = 20.0,
                 name: str = "jam-sweep"):
        if not channels:
            raise ConfigurationError("sweep needs at least one channel")
        if dwell <= 0.0:
            raise ConfigurationError("dwell must be positive")
        super().__init__(sim, medium, position, channel_id=channels[0],
                         power_dbm=power_dbm, name=name)
        self.channels = tuple(channels)
        self.dwell = dwell
        self._index = 0

    def _begin(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if not self._active:
            return
        self.source.channel_id = self.channels[self._index]
        self._index = (self._index + 1) % len(self.channels)
        self.counters.incr("sweeps", 1 if self._index == 0 else 0)
        self._burst(self.dwell)
        self._tick_timer.schedule(self.dwell)


class ReactiveJammer:
    """Carrier-sensing jammer: detects a transmission, stomps its tail.

    Owns a real (attached) :class:`~repro.phy.transceiver.Radio` whose
    CCA-busy edge triggers a jamming burst after a short turnaround —
    the classic reactive jammer that spends no energy on an idle
    medium but corrupts the SINR of every frame it hears.  The radio's
    decodable-mode set is emptied so it never locks or decodes (it is
    an energy detector, not a receiver), and while it jams it is
    half-duplex deaf, exactly like any transmitter.

    After each burst the jammer re-checks the medium: if the victim
    frame (or another) is still on the air it chains another burst, so
    long frames stay jammed end-to-end.
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 standard: PhyStandard = DOT11B, channel_id: int = 1,
                 power_dbm: float = 20.0, turnaround: float = 5e-6,
                 burst_duration: float = 200e-6, name: str = "jam-react",
                 radio_config: Optional[RadioConfig] = None):
        if turnaround < 0.0 or burst_duration <= 0.0:
            raise ConfigurationError(
                "turnaround must be >= 0 and burst_duration positive")
        self.sim = sim
        self.name = name
        self.turnaround = turnaround
        self.burst_duration = burst_duration
        self.power_watts = dbm_to_watts(power_dbm)
        self.counters = Counter()
        self.radio = Radio(name, medium, standard, position,
                           channel_id=channel_id, config=radio_config)
        # Pure energy detector: never lock, never decode, never upcall.
        self.radio.decodable_modes.clear()
        self.radio.on_cca_busy = self._cca_busy
        self.radio.on_tx_end = self._tx_end
        self._fire_timer = Timer(sim, self._fire)
        self._active = False

    @property
    def active(self) -> bool:
        return self._active

    @property
    def position(self) -> Position:
        return self.radio.position

    def airtime_seconds(self) -> float:
        return self.counters.get("airtime_us") * 1e-6

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        # The medium may already be busy when the jammer wakes up.
        if self.radio.cca_busy():
            self._trigger()

    def stop(self) -> None:
        self._active = False
        self._fire_timer.cancel()

    def _cca_busy(self) -> None:
        if self._active:
            self._trigger()

    def _trigger(self) -> None:
        if self._fire_timer.armed or self.radio.state is RadioState.TX:
            return
        self.counters.incr("triggers")
        self._fire_timer.schedule(self.turnaround)

    def _fire(self) -> None:
        if not self._active or self.radio.state is RadioState.TX:
            return
        self.counters.incr("bursts")
        self.counters.incr("airtime_us",
                           int(round(self.burst_duration * 1e6)))
        self.radio.transmit_energy(self.burst_duration, self.power_watts)

    def _tx_end(self) -> None:
        # Chain: if energy is still arriving (the victim frame outlived
        # our burst), keep jamming it.
        if self._active and self.radio.cca_busy():
            self._trigger()


class BluetoothHopper(Emitter):
    """A Bluetooth-style FHSS bystander sharing the 2.4 GHz band.

    Reuses the :mod:`repro.wpan.bluetooth` TDD timing: one transmission
    opportunity per 625 us slot, of which :data:`BT_TX_TIME` is on the
    air.  Each slot the hop sequence lands inside the victim 802.11
    channel's 22 MHz passband with probability 22/79 (the geometric
    overlap of a 79-hop sequence), drawn from a named RNG stream so a
    seeded run reproduces the same hop pattern.  ``tx_probability``
    models link load (a saturated ACL link transmits almost every
    slot; an idle one mostly POLL/NULLs).
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channel_id: int = 1, power_dbm: float = 4.0,
                 tx_probability: float = 1.0, name: str = "bt-hopper"):
        if not 0.0 <= tx_probability <= 1.0:
            raise ConfigurationError("tx_probability must be in [0, 1]")
        super().__init__(sim, medium, position, channel_id=channel_id,
                         power_dbm=power_dbm, name=name)
        self.tx_probability = tx_probability
        self._overlap = BT_OVERLAP_CHANNELS / BT_HOP_CHANNELS
        self._rng = sim.rng.stream(f"bt.{name}")

    def _begin(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if not self._active:
            return
        self.counters.incr("slots")
        draw = self._rng.random()
        if draw < self._overlap * self.tx_probability:
            self.counters.incr("hits")
            self._burst(BT_TX_TIME)
        self._tick_timer.schedule(BT_SLOT_TIME)


class MicrowaveOven(Emitter):
    """Broadband mains-synchronous burst source (the kitchen classic).

    A magnetron emits during one half of every AC cycle, splattering
    the whole 2.4 GHz band: on for ``1/(2*mains_hz)`` out of every
    ``1/mains_hz``, across every channel in ``channels`` at once (one
    :class:`EnergySource` per channel, so each co-channel cell pays
    only for its own audible arrivals; airtime is counted once per
    burst, not per channel).
    """

    def __init__(self, sim: Simulator, medium: Medium, position: Position,
                 channels: Sequence[int] = (1, 6, 11),
                 mains_hz: float = 50.0, power_dbm: float = 30.0,
                 name: str = "microwave"):
        if not channels:
            raise ConfigurationError("the oven needs at least one channel")
        if mains_hz <= 0.0:
            raise ConfigurationError("mains_hz must be positive")
        super().__init__(sim, medium, position, channel_id=channels[0],
                         power_dbm=power_dbm, name=name)
        self.period = 1.0 / mains_hz
        self.on_time = self.period / 2.0
        # The base source covers channels[0]; siblings cover the rest.
        self.sources: List[EnergySource] = [self.source] + [
            EnergySource(f"{name}-ch{channel}", medium, position,
                         channel_id=channel, power_dbm=power_dbm)
            for channel in channels[1:]]

    def _begin(self) -> None:
        self._tick()

    def _tick(self) -> None:
        if not self._active:
            return
        self._burst(self.on_time)
        self._tick_timer.schedule(self.period)

    def _emit(self, duration: float) -> None:
        for source in self.sources:
            source.emit(duration)
