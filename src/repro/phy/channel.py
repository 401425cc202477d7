"""The shared wireless medium.

:class:`Medium` connects radios through a propagation model.  When a
radio transmits, the medium computes the receive power at every other
attached radio on the same channel and delivers the energy after the
speed-of-light propagation delay.  Radios below the reception floor
still receive the energy for CCA/interference purposes — a frame you
cannot decode can still deafen you.

The medium is deliberately policy-free: locking, capture, SINR, and
error decisions all live in :class:`~repro.phy.transceiver.Radio`.

Fast path: for static topologies the link budget between any two radios
never changes, so :class:`LinkCache` memoizes the per-pair received
power and propagation delay.  On top of it, the medium compiles a
**fan-out plan** per sender: the audible co-channel receiver set with
the reception-floor cull done and the per-receiver upcalls, receive
powers and propagation delays pre-resolved into flat tuples.
``Medium.transmit`` then degenerates to handing that flat list to the
kernel's fan-out primitive (``sim._fan_out``: two raw heap entries per
receiver) — no cache lookup, no floor check, no per-receiver
conditional.  Plans are rebuilt (through
:class:`LinkCache`, so the floats are bit-identical to the per-receiver
loop) whenever the topology changes: every path that moves, attaches or
retunes a radio funnels into :meth:`Medium.invalidate_links` /
:meth:`Medium.invalidate_channels` / :meth:`Medium.attach`, each of
which drops the compiled plans.  A plan additionally validates the
*sender's* position identity and transmit power on every use, so a
sender mutated behind the hooks still recompiles.  Every model in
:mod:`repro.phy.propagation` is a function of geometry, so the plan is
the only transmit path.

Receive edges follow the simulator's kernel: each radio binds its
``transceiver.RADIO`` slots once (``repro.core.binding``), so on
``kernel="c"`` a plain :class:`Radio`'s fan-out entries (its ``_edges``)
and reception-end timer fire the compiled twins of ``arrival_begins`` /
``arrival_ends`` / ``_reception_complete``; otherwise the Python
methods, their reference.  So does the transmit side: a plain radio's
``transmit`` twin runs :meth:`Medium.transmit` itself, a plan miss aside
(:meth:`Medium._compile_plan`), unless the medium has a ``transmit`` of
its own, by class or instance.  What watches the air (a shard's export,
a telemetry probe) joins :attr:`Medium.observers`, which both sides call
after the fan-out.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.units import SPEED_OF_LIGHT, dbm_to_watts, watts_to_dbm
from .modulation import DBPSK_DSSS
from .propagation import PropagationModel
from .standards import PhyMode

if TYPE_CHECKING:  # pragma: no cover - the radio module imports this one
    from .transceiver import Radio

#: Mode sentinel carried by energy-only transmissions (jammers,
#: coexistence interferers, broadband noise bursts).  The name is not in
#: any standard's decodable set, so every receiver treats the arrival as
#: pure energy: it drives CCA and accumulates as interference against
#: locked receptions, but no radio ever locks onto it or upcalls a
#: frame.  The infinite min-SNR makes ideal rate selection ignore it too.
ENERGY_ONLY = PhyMode(name="ENERGY", data_rate_bps=1.0,
                      modulation=DBPSK_DSSS, min_snr_db=float("inf"))


class Transmission:
    """One frame in flight on the medium."""

    _ids = itertools.count(1)

    __slots__ = ("id", "sender", "payload", "size_bits", "mode",
                 "power_watts", "start_time", "duration")

    def __init__(self, sender: Radio, payload: Any, size_bits: int,
                 mode: PhyMode, power_watts: float, start_time: float,
                 duration: float):
        self.id = next(Transmission._ids)
        self.sender = sender
        self.payload = payload
        self.size_bits = size_bits
        self.mode = mode
        self.power_watts = power_watts
        self.start_time = start_time
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Transmission #{self.id} from {self.sender.name} "
                f"{self.size_bits}b @{self.mode.name}>")


class LinkCache:
    """Memoized per-pair link budgets for static (between moves) topologies.

    One entry per ordered ``(sender, receiver)`` radio pair:
    ``(rx_power_watts, delay_s, tx_power_watts, tx_position,
    rx_position)``.  The positions (and transmit power) the entry was
    computed from ride along so a lookup can validate the entry with two
    identity checks and a float compare — positions are immutable value
    objects, so any movement replaces the object and the stale entry
    misses.  Explicit invalidation exists for model-level changes (e.g.
    re-seeding a shadowing decorator) and is wired into the radio
    position setter and the mobility models.

    The cached receive power is the output of
    :meth:`~repro.phy.propagation.PropagationModel.received_power_watts`,
    so cached runs and a fresh evaluation per frame (as before the cache)
    produce bit-identical link budgets; only the per-frame cost changes.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[Tuple[Radio, Radio],
                            Tuple[float, float, float, Any, Any]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, propagation: PropagationModel, sender: Radio,
               receiver: Radio, tx_power_watts: float
               ) -> Tuple[float, float, float, Any, Any]:
        """Return ``(rx_power, delay_s, tx_power, tx_pos, rx_pos)``."""
        key = (sender, receiver)
        tx_pos = sender.position
        rx_pos = receiver.position
        entry = self._entries.get(key)
        if entry is not None and entry[3] is tx_pos and \
                entry[4] is rx_pos and entry[2] == tx_power_watts:
            self.hits += 1
            return entry
        rx_power = propagation.received_power_watts(tx_power_watts,
                                                    tx_pos, rx_pos)
        delay = tx_pos.distance_to(rx_pos) / SPEED_OF_LIGHT
        entry = (rx_power, delay, tx_power_watts, tx_pos, rx_pos)
        self._entries[key] = entry
        self.misses += 1
        return entry

    def invalidate(self, radio: Optional[Radio] = None) -> None:
        """Drop every entry involving ``radio`` (or all entries)."""
        if radio is None:
            self._entries.clear()
            return
        self._entries = {
            key: entry for key, entry in self._entries.items()
            if key[0] is not radio and key[1] is not radio}

    def __len__(self) -> int:
        return len(self._entries)


class Medium:
    """A broadcast radio medium with per-channel isolation.

    Parameters
    ----------
    sim:
        The simulation kernel.
    propagation:
        Path-loss model applied between every transmitter/receiver pair.
    reception_floor_dbm:
        Arrivals weaker than this are dropped entirely (not even counted
        as interference).  Keeps the event count linear in *audible*
        neighbours rather than all nodes.  Default -110 dBm is well below
        any CCA threshold.
    propagation_delay:
        Whether to model the speed-of-light delay (on by default; a few
        hundred nanoseconds at WLAN scale, microseconds at WiMAX scale).
    """

    def __init__(self, sim: Simulator, propagation: PropagationModel,
                 reception_floor_dbm: float = -110.0,
                 propagation_delay: bool = True):
        self.sim = sim
        self.propagation = propagation
        self.reception_floor_watts = dbm_to_watts(reception_floor_dbm)
        self.propagation_delay = propagation_delay
        self.links = LinkCache()
        self._radios: List[Radio] = []
        # Per-channel fan-out lists: ``(radio, arrival_begins,
        # arrival_ends)`` with the bound methods pre-resolved (attach
        # order preserved, so the arrival fan-out visits receivers in
        # the same deterministic order as a scan of the full radio
        # list).  Invalidated wholesale on attach and on any retune.
        self._by_channel: Dict[int, List[Tuple[Radio, Any, Any]]] = {}
        # Compiled fan-out plans: sender -> (tx_position, tx_power,
        # entries) where entries is a flat tuple of (arrival_begins,
        # arrival_ends, rx_power_watts, delay_s) per audible co-channel
        # receiver, in attach order.  Dropped wholesale by every
        # topology-change hook; validated per transmit against the
        # sender's own position identity and power.
        self._plans: Dict[Radio, Tuple[Any, float, Tuple[Tuple[Any, Any,
                                                               float, float],
                                                         ...]]] = {}
        self.plan_hits = 0
        self.plan_misses = 0
        #: Cumulative count of plan-dropping topology changes (attach,
        #: retunes, moves).  All the increments sit on cold invalidation
        #: paths.
        self.plan_invalidations = 0
        #: ``observer(transmission, width)``, called after each fan-out.
        self.observers: Tuple[Any, ...] = ()

    def attach(self, radio: Radio) -> None:
        """Register a radio (called from the Radio constructor)."""
        if radio in self._radios:
            raise ConfigurationError(f"radio {radio.name} attached twice")
        self._radios.append(radio)
        self._by_channel.clear()
        self._plans.clear()
        self.plan_invalidations += 1

    def invalidate_channels(self) -> None:
        """Drop the per-channel radio lists (a radio retuned)."""
        self._by_channel.clear()
        self._plans.clear()
        self.plan_invalidations += 1

    def _channel_members(self, channel_id: int) -> List[Tuple[Radio, Any, Any]]:
        members = self._by_channel.get(channel_id)
        if members is None:
            members = self._by_channel[channel_id] = [
                radio._edges for radio in self._radios
                if radio._channel_id == channel_id]
        return members

    def invalidate_links(self, radio: Optional[Radio] = None) -> None:
        """Invalidate cached link budgets (all, or one radio's links).

        Called from :class:`~repro.phy.transceiver.Radio`'s position
        setter and from the mobility models on every move; call it
        directly after mutating the propagation model itself.  Also
        drops every compiled fan-out plan: a receiver that moved may
        appear in (or drop out of) any sender's audible set, and the
        plan carries its receive power, so partial invalidation by
        sender would be unsound.  Recompilation is amortized — on a
        mobile tick each active sender recompiles once, against a
        LinkCache that still holds every unmoved pair.
        """
        self.links.invalidate(radio)
        self._plans.clear()
        self.plan_invalidations += 1

    def radios_on_channel(self, channel_id: int) -> List[Radio]:
        return [radio for radio, _begins, _ends
                in self._channel_members(channel_id)]

    # --- transmission fan-out ------------------------------------------------

    def _compile_plan(self, sender: Radio, channel: int, power_watts: float
                      ) -> Tuple[Any, float,
                                 Tuple[Tuple[Any, Any, float, float], ...]]:
        """Build (and memoize) the sender's plan record.

        Returns the full ``(tx_position, tx_power, entries)`` record as
        stored in ``_plans`` — callers index ``[2]`` for the flat
        per-receiver entries tuple.

        Receive powers come through :class:`LinkCache` (bit-identical to
        the per-receiver loop, and warm pairs stay warm across
        recompiles).
        """
        floor = self.reception_floor_watts
        propagation = self.propagation
        model_delay = self.propagation_delay
        lookup = self.links.lookup
        tx_pos = sender.position
        entries = []
        for receiver, begins, ends in self._channel_members(channel):
            if receiver is sender:
                continue
            cached = lookup(propagation, sender, receiver, power_watts)
            rx_power = cached[0]
            if rx_power < floor:
                continue
            delay = cached[1] if model_delay else 0.0
            entries.append((begins, ends, rx_power, delay))
        plan = tuple(entries)
        record = (tx_pos, power_watts, plan)
        self._plans[sender] = record
        return record

    def transmit(self, sender: Radio, payload: Any, size_bits: int,
                 mode: PhyMode, duration: float, power_watts: float
                 ) -> Transmission:
        """Fan a frame out to every audible co-channel radio."""
        sim = self.sim
        now = sim._now
        channel = sender._channel_id
        transmission = Transmission(sender, payload, size_bits, mode,
                                    power_watts, now, duration)
        plan = self._plans.get(sender)
        if plan is not None and plan[0] is sender._position \
                and plan[1] == power_watts:
            self.plan_hits += 1
        else:
            plan = self._compile_plan(sender, channel, power_watts)
            self.plan_misses += 1
        # Every receiver keeps its own edges: fusing the propagation
        # stagger costs +19 % collisions (ROADMAP item 7's dead ends).
        sim._fan_out(sim, plan[2], transmission, duration)
        for observer in self.observers:
            observer(transmission, len(plan[2]))
        return transmission

    # --- energy-only path (adversary / coexistence emitters) ----------------

    def transmit_energy(self, sender: Any, duration: float,
                        power_watts: float, payload: Any = None
                        ) -> Transmission:
        """Fan out a burst of non-decodable energy.

        The arrival carries power but no frame: receivers integrate it
        into CCA and interference accounting but never lock onto it,
        because the transmission rides
        the :data:`ENERGY_ONLY` mode whose name no radio decodes.  The
        burst goes through :meth:`transmit` unchanged, so it composes
        with the compiled fan-out plans, the LinkCache and the
        per-channel receiver lists — and costs *nothing* when no
        emitter exists, which is the bit-identity guarantee.

        ``sender`` may be a full :class:`~repro.phy.transceiver.Radio`
        (e.g. a reactive jammer that also carrier-senses) or any
        transmit-only object exposing ``name``, ``position``,
        ``_position`` and ``_channel_id`` — see
        :class:`repro.adversary.emitters.EnergySource`.  Transmit-only
        senders keep their channel and must call :meth:`invalidate_links`
        when they move.
        """
        return self.transmit(sender, payload, 0, ENERGY_ONLY, duration,
                             power_watts)

    # --- link budget introspection (used by scanning / benchmarks) ----------

    def link_rx_power_dbm(self, sender: Radio, receiver: Radio) -> float:
        """Receive power the receiver would see from the sender, in dBm."""
        rx_watts = self.propagation.received_power_watts(
            sender.tx_power_watts, sender.position, receiver.position)
        return watts_to_dbm(rx_watts)

    def link_snr_db(self, sender: Radio, receiver: Radio) -> float:
        """Noise-limited SNR of the sender->receiver link."""
        return receiver.snr_from_dbm(self.link_rx_power_dbm(sender, receiver))
