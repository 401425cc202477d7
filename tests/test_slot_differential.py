"""Every compiled twin against its Python reference: the one parity
suite for the run loop, the radio, the MAC and the NAV.

``repro.core.binding``'s tables name every slot the extension serves
(``engine.SIMULATOR``, ``transceiver.RADIO``, ``dcf.MAC``, ``nav.NAV``).
Two worlds hold them — radios on a medium (``RadioWorld``), stations and
a bare radio on a medium (``MacWorld``) — and ``snapshot()`` everything
the kernels must agree on, repr-exact: every slot, upcall, heap entry,
RNG state and cached frame verdict.

* Drawn whole schedules (powers a few ulp around every threshold,
  sends, reservations that nest, sleep, power loss, ``crash()``) run once
  per kernel and are compared after every step; ``CORNERS`` are the
  schedules a walk seldom reaches.
* Each slot is called alone: a drawn or named state (a schedule prefix,
  then for a MAC a base and ``STATES``: each reason not to arm, each
  boundary met exactly, each field of the wrong type; ``SENDS``;
  ``FRAMES``; every edge of a radio corner) is built twice and the twin
  called on one copy, the reference on the other.  A simulator's
  ``_queue`` is compared part by part across kernels.
* A subclass of each class a twin reads by offset (``ODD``, and the
  MAC's ``STATES``) logs its by-name reads (``READS``).
* ``FAILURES``: whatever raises under the compiled loop — an upcall, a
  PER, an expiry, a rate factory, a verdict, an entry or handle of the
  wrong shape, a bad ``run()`` argument, a tally its exit cannot write —
  leaves the reference's exception, its context and state under each
  of ``run()``'s bounds (``BOUNDS``), and the run goes on once mended.

Where a row has one right outcome (``EXPECTED``, a corner's or a
failure's) the reference is held to it too, so a change that moves both
sides alike fails as well.  Skipped loudly without the extension (see
``conftest``); CI's compiled-kernel lane runs the file under ``-X dev``.
"""

import dataclasses
import math
from fractions import Fraction
from types import MethodType, ModuleType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.binding import bind, tally
from repro.core.engine import (SHAPE_COUNTS, SIMULATOR, EventHandle, Timer,
                               ckernel_available)
from repro.core.errors import SimulationError
from repro.core.stats import Counter
from repro.core.trace import TraceDigest, TraceLog
from repro.core.units import dbm_to_watts
from repro.mac.addresses import (BROADCAST, MacAddress, allocate_address,
                                 reset_allocator)
from repro.mac.backoff import BackoffWindow
from repro.mac.dcf import MAC, DcfConfig, DcfMac, MacListener, _TxContext
from repro.mac.frames import (Dot11Frame, FrameControl, FrameType, make_ack,
                              make_cts, make_ps_poll, make_rts)
from repro.mac.nav import NAV, Nav
from repro.mac.queueing import DropTailQueue
from repro.mac.rate_adapt import (FixedRate, IdealSnr, RateController,
                                  fixed_rate_factory)
from repro.parallel.shard import ShardMedium
from repro.phy.channel import ENERGY_ONLY, Medium, Transmission
from repro.phy.error_models import (BerErrorModel, FixedPerErrorModel,
                                    SnrThresholdErrorModel)
from repro.phy.interference import CaptureModel
from repro.phy.modulation import Modulation
from repro.phy.propagation import FixedLoss, FreeSpace
from repro.phy.standards import DOT11B, DOT11G, PhyMode
from repro.phy.transceiver import RADIO, Radio, RadioConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.probes import MediumProbe

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

NOISE = DOT11B.noise_floor_watts            # preamble floor at 0 dB SNR
CCA = dbm_to_watts(RadioConfig().cca_threshold_dbm)
LOCKED = 3e-10                              # a comfortably decodable signal
SLOT, DIFS, EIFS = DOT11B.slot_time, DOT11B.difs, DOT11B.eifs
BASIC = DOT11B.modes[0]
MULTICAST = MacAddress(0x01005E000001)
#: Addresses no station of a ``MacWorld`` holds: third-party traffic.
STRANGER = MacAddress(0x020000000063)
BYSTANDER = MacAddress(STRANGER.value + 1)


def _ulps(value, steps):
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


class Boom(Exception):
    pass


def _boom(*_args):
    raise Boom("upcall failed")


# --- radios on a medium ------------------------------------------------------

class OddCapture:
    """Not a ``CaptureModel``: the compiled edge has no arithmetic for
    it and must ask ``should_capture``."""

    def __init__(self, log):
        self._log = log

    def should_capture(self, locked_power_watts, new_power_watts):
        self._log.append(("capture?", repr(locked_power_watts),
                          repr(new_power_watts)))
        return new_power_watts >= 4.0 * locked_power_watts


class OddWatts:
    """A power that is not a float and keeps its type under ``sum``:
    whatever holds one in its table must be summed by the reference."""

    def __init__(self, watts):
        self.watts = watts

    def __add__(self, other):
        return OddWatts(self.watts + getattr(other, "watts", other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.watts - other

    def __ge__(self, other):
        return self.watts >= other

    def __repr__(self):
        return f"OddWatts({self.watts!r})"


class ListeningRadio(Radio):
    """A subclass: must be served by its own Python edges on any kernel."""

    __slots__ = ()

    def arrival_begins(self, transmission, power_watts):
        Radio.arrival_begins(self, transmission, power_watts)


class LoggedBer(BerErrorModel):
    """A ``BerErrorModel`` subclass: not the exact class, so the compiled
    tail must call this method, not compute the PER itself."""

    def __init__(self, log):
        self._log = log

    def frame_survives(self, snr_db, size_bits, modulation, rng):
        self._log.append(("survives?", repr(snr_db), size_bits))
        return super().frame_survives(snr_db, size_bits, modulation, rng)


class DeafModulation(Modulation):
    """A subclass whose BER curve raises: the compiled tail hands its
    PER to ``packet_error_rate``, which raises."""

    def ber(self, snr_db):
        raise Boom("no curve")


def _error_model(kind, log):
    return {"ber": BerErrorModel, "fixed": lambda: FixedPerErrorModel(0.4),
            "threshold": lambda: SnrThresholdErrorModel(14.0),
            "subclass": lambda: LoggedBer(log)}[kind]()


class World:
    """What every world shares: its simulator and heap, described
    repr-exact; a world adds its radios or stations."""

    macs = ()

    def owner(self, obj):
        for index, mac in enumerate(self.macs):
            if obj is mac:
                return f"mac{index}"
            if obj is mac.nav:
                return f"nav{index}"
        return getattr(obj, "name", type(obj).__name__)

    def callback(self, callback):
        if callback is None:
            return None
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, ModuleType):
            owner = None    # a twin held unbound, like a plain function
        return (self.owner(owner), callback.__name__)

    def describe(self, value):
        if isinstance(value, float):
            return repr(value)
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, Timer):
            return ("Timer", value._armed, getattr(value, "_version", None),
                    repr(value._time),
                    self.callback(getattr(value, "_callback", None)))
        if isinstance(value, tuple):
            return tuple(map(self.describe, value))
        if isinstance(value, Nav):
            return ("Nav", repr(value._until),
                    self.callback(value._on_expire),
                    self.describe(value._timer))
        if isinstance(value, Counter):
            return sorted(value.as_dict().items())
        if isinstance(value, BackoffWindow):
            return (value.cw, value.stage, hash(value._rng.getstate()))
        if isinstance(value, _TxContext):
            return (len(value.msdu.payload),) + tuple(
                getattr(value, slot) for slot in (
                    "frag_index", "sequence", "use_rts", "attempts",
                    "rts_attempts", "cts_received", "is_broadcast"))
        if isinstance(value, DropTailQueue):
            return len(value)
        if isinstance(value, dict):          # _controllers, as inserted
            return [(key, self.describe(item)) for key, item in value.items()]
        if isinstance(value, RateController):
            return (type(value).__name__, repr(getattr(value, "_snr_db", 0)))
        if isinstance(value, Transmission):
            return self.label(value)
        if isinstance(value, EventHandle):
            return ("EventHandle", self.callback(getattr(
                value, "callback", None)))
        if isinstance(value, Dot11Frame):    # and its verdict, once judged
            return (repr(value), tuple(map(self.describe, vars(value).get(
                "rx_verdict", ("not judged",)))))
        if callable(value) and hasattr(value, "__name__"):
            return self.callback(value)
        return type(value).__name__

    def label(self, transmission):
        return None if transmission is None \
            else f"air{transmission.id - self.first_id}"

    def snapshot(self):
        sim = self.sim
        # Every entry, in pop order: (time, seq) is a total order, so pop
        # order and depth are the queue contract — array layout is not
        # (kernel="c" keeps structs in its own heap, not this list's).
        return {"now": repr(getattr(sim, "_now", "deleted")),
                "scheduled": sim._scheduled,
                "cancelled": sim._cancelled_events,
                "executed": getattr(sim, "_events_executed", "deleted"),
                "tallies": [getattr(sim, name, "deleted")
                            for name in SHAPE_COUNTS],
                "heap": [(repr(entry[0]), entry[1]) + self.describe(entry[2:])
                         for entry in sorted(sim._heap,
                                             key=lambda entry: entry[:2])],
                "log": list(self.log)}


class RadioWorld(World):
    """2-6 radios on one medium with every upcall logged: four error
    models (only an exact ``BerErrorModel`` is answered in C; its
    arithmetic is ``tests/phy/test_per_twin.py``'s), capture on, off or
    not a ``CaptureModel``, a ``Radio`` subclass, tracing on or off."""

    def __init__(self, kernel, radios=2, capture="on", subclass_at=None,
                 error_model="ber", traced=True, medium_class=Medium):
        self.sim = sim = Simulator(seed=11, kernel=kernel,
                                   trace=TraceLog(enabled=traced))
        self.medium = medium = medium_class(sim, FreeSpace(2.4e9))
        self.log = log = []
        self.first_id = next(Transmission._ids) + 1
        if capture == "odd":
            capture_model = OddCapture(log)
        else:
            capture_model = CaptureModel(enabled=capture == "on",
                                         threshold_db=10.0)
        self.radios = []
        for index in range(radios):
            cls = ListeningRadio if index == subclass_at else Radio
            radio = cls(f"r{index}", medium, DOT11B,
                        Position(3.0 * index, 1.0 * (index % 2), 0.0),
                        config=RadioConfig(capture=capture_model),
                        error_model=_error_model(error_model, log))
            self._wire(radio)
            self.radios.append(radio)
        mode = DOT11B.modes[0]
        ghost = self.radios[0]
        #: Transmissions the schedule delivers by hand: decodable ones
        #: of three airtimes, a foreign PHY's, bare energy, and
        #: decodable frames of no and of negative size (PER 0.0).
        self.pool = [
            Transmission(ghost, f"frame{index}", bits, tx_mode, 1e-3, 0.0,
                         duration)
            for index, (bits, tx_mode, duration) in enumerate((
                (800, mode, 2e-4), (800, mode, 5e-4), (1600, mode, 9e-4),
                (800, DOT11B.modes[1], 3e-4), (800, DOT11G.modes[0], 4e-4),
                (0, ENERGY_ONLY, 6e-4), (0, ENERGY_ONLY, 1e-4),
                (0, mode, 2.5e-4), (-8, mode, 3.5e-4)))]

    def _wire(self, radio):
        log, sim, name = self.log, self.sim, radio.name

        def note(event):
            return lambda *args: log.append(
                (name, event, repr(sim.now)) + tuple(
                    repr(arg) if isinstance(arg, float) else str(arg)
                    for arg in args))

        radio.on_cca_busy = note("cca-busy")
        radio.on_cca_idle = note("cca-idle")
        radio.on_tx_end = note("tx-end")
        radio.on_state_change = note("state")
        radio.on_rx_end = lambda payload, ok, snr, mode: log.append(
            (name, "rx-end", repr(sim.now), str(payload), ok, repr(snr),
             mode.name))

    def edges(self, radio):
        """The two callables the medium schedules for ``radio``."""
        for member, begins, ends in self.medium._channel_members(
                radio.channel_id):
            if member is radio:
                return begins, ends
        raise AssertionError(f"{radio.name} is not on its own channel")

    def label(self, transmission):
        if transmission in self.pool:
            return f"pool{self.pool.index(transmission)}"
        return super().label(transmission)

    def apply(self, op, step):
        """Play one schedule op (the ``step``-th)."""
        sim = self.sim
        radio = self.radios[op[1] % len(self.radios)] if op[0] != "run" \
            else None
        try:
            if op[0] == "poke":
                op[2](self, radio)
            elif op[0] == "begins":
                self.edges(radio)[0](self.pool[op[2]], op[3])
            elif op[0] == "ends":
                self.edges(radio)[1](self.pool[op[2]])
            elif op[0] == "transmit":
                # As a MAC sends: through the transmit the radio was served.
                radio._transmit(radio, f"data{step}", 400 * (1 + op[2]),
                                DOT11B.modes[op[2]])
            elif op[0] == "energy":
                radio.transmit_energy(3e-4)
            elif op[0] == "run":
                sim.run(until=sim.now + op[1])
            elif op[0] == "retune":
                radio.channel_id = op[2]
            else:
                getattr(radio, op[0])()
        except (SimulationError, TypeError, ValueError) as exc:
            self.log.append(("raised", type(exc).__name__))

    def snapshot(self):
        sim = self.sim
        radios = []
        for radio in self.radios:
            tracker = radio._tracker
            radios.append((
                radio.name, radio._state.value, radio._cca_busy,
                [(self.label(tx), repr(power))
                 for tx, power in radio._arrivals.items()],
                self.label(radio._locked), repr(radio._locked_power),
                radio._locked_tracker is tracker,
                tuple(repr(getattr(tracker, slot))
                      for slot in type(tracker).__slots__),
                (radio._rx_timer._armed, radio._rx_timer._version,
                 repr(radio._rx_timer._time)),
                hash(radio._rng.getstate())))
        return dict(super().snapshot(), radios=radios, trace=[
            (repr(record.time), record.source, record.event,
             sorted(record.detail.items())) for record in sim.trace]
            if isinstance(sim.trace, TraceLog) else sim.trace.hexdigest())


#: Receive powers on and a few ulp around each decision boundary: the
#: preamble floor, the CCA threshold (alone, and as a sum of two), and
#: the 10 dB and 4x capture margins over a ``LOCKED`` signal.
THRESHOLD_POWERS = [
    _ulps(anchor, steps)
    for anchor in (NOISE, CCA, CCA / 2.0, LOCKED, LOCKED * 10.0,
                   LOCKED * 4.0, LOCKED / 10.0)
    for steps in (-3, -1, 0, 1, 3)]

POWERS = st.one_of(
    st.sampled_from(THRESHOLD_POWERS),
    st.floats(min_value=1e-14, max_value=1e-6, allow_nan=False),
    st.sampled_from([0.0, 0, 1]))   # exact zero, and ints: reference path

RADIO_INDEX = st.integers(min_value=0, max_value=5)
RADIO_OPS = st.one_of(
    st.tuples(st.just("begins"), RADIO_INDEX, st.integers(0, 8), POWERS),
    st.tuples(st.just("begins"), RADIO_INDEX, st.integers(0, 8), POWERS),
    st.tuples(st.just("ends"), RADIO_INDEX, st.integers(0, 8)),
    st.tuples(st.just("transmit"), RADIO_INDEX, st.integers(0, 3)),
    st.tuples(st.just("energy"), RADIO_INDEX),
    st.tuples(st.just("run"), st.sampled_from([1e-7, 5e-5, 2.5e-4, 2e-3])),
    st.tuples(st.sampled_from(["sleep", "wake", "power_off"]), RADIO_INDEX),
    st.tuples(st.just("retune"), RADIO_INDEX, st.sampled_from([1, 6])))


# --- stations on a medium ----------------------------------------------------

class WatchedMac(DcfMac):
    """A subclass: must be served by its own Python methods on any
    kernel."""

    __slots__ = ()


class WatchedRadio(Radio):
    __slots__ = ()


class OddFrame(Dot11Frame):
    """A subclass: the compiled demux hands it, whole, to the method."""


class Listening(FixedRate):
    """Overrides ``on_snr_measurement``: hears every frame its peer is
    heard sending, whichever kernel feeds it."""

    def __init__(self, standard, log, name):
        super().__init__(standard, standard.modes[-1])
        self._log, self._name = log, name

    def on_snr_measurement(self, snr_db):
        self._log.append((self._name, "snr", repr(snr_db)))


class Air(Medium):
    """Remembers every payload put on the air, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.payloads = []

    def transmit(self, sender, payload, *rest):
        self.payloads.append(payload)
        return super().transmit(sender, payload, *rest)


class Upper(MacListener):
    def __init__(self, log, sim, name):
        self._log, self._sim, self._name = log, sim, name

    def mac_receive(self, source, destination, payload, meta):
        self._log.append((self._name, "receive", repr(self._sim.now),
                          str(source), len(payload), repr(meta["snr_db"])))

    def mac_tx_complete(self, msdu, success):
        self._log.append((self._name, "tx-complete", repr(self._sim.now),
                          len(msdu.payload), success))


class MacWorld(World):
    """2-5 saturable stations in mutual range, plus a bare radio that
    only ever emits energy or third parties' frames: with or without
    loss, RTS/CTS and fragmentation, one station a ``DcfMac`` subclass,
    one on ``IdealSnr``, one on a controller that logs its SNR feed,
    one with a sniffer."""

    def __init__(self, kernel, stations=3, subclass_at=None, per=None,
                 rts=False, radio_class=Radio, ideal_at=None,
                 listening_at=None, sniffer_at=None):
        reset_allocator()                    # same RNG stream names
        self.sim = sim = Simulator(seed=23, kernel=kernel)
        self.medium = medium = Air(sim, FixedLoss(50.0))
        self.first_id = next(Transmission._ids) + 1
        self.log = []
        config = DcfConfig(rts_threshold_bytes=200 if rts else 2347,
                           fragmentation_threshold_bytes=256)
        self.macs = []
        for index in range(stations):
            radio = radio_class(
                f"r{index}", medium, DOT11B, Position(float(index), 0.0, 0.0),
                error_model=None if per is None else FixedPerErrorModel(per))
            cls = WatchedMac if index == subclass_at else DcfMac
            name = f"mac{index}"
            factory = fixed_rate_factory("CCK-11")
            if index == ideal_at:
                factory = IdealSnr
            elif index == listening_at:
                factory = lambda standard, name=name: Listening(
                    standard, self.log, name)
            mac = cls(sim, radio, allocate_address(), config=config,
                      rate_factory=factory)
            mac.listener = Upper(self.log, sim, name)
            if index == sniffer_at:
                mac.sniffer = lambda frame, snr_db, name=name: \
                    self.log.append((name, "sniffed", repr(frame),
                                     repr(snr_db), repr(sim.now)))
            self.macs.append(mac)
        for mac in self.macs:
            mac.bssid = self.macs[0].address     # where PS-Polls go
        self.jammer = Radio("jam", medium, DOT11B, Position(0.5, 1.0, 0.0))

    def hear(self, frame):
        """The bare radio sends ``frame`` to whoever is in range."""
        bits = frame.wire_size_bits() if isinstance(frame, Dot11Frame) else 400
        self.jammer.transmit(frame, bits, BASIC)

    def apply(self, op, step=None):
        macs, sim = self.macs, self.sim
        count = len(macs)
        # Sleeping mid-TX, a second burst, and — from inside run() — an
        # access won by a station whose radio was put to sleep raise.
        try:
            if op[0] == "send":
                source = op[1] % count
                target = (source + 1 + op[2] % (count - 1)) % count
                macs[source].send(macs[target].address, bytes(op[3]))
            elif op[0] in ("broadcast", "multicast"):
                macs[op[1] % count].send(
                    BROADCAST if op[0] == "broadcast" else MULTICAST,
                    bytes(60))
            elif op[0] == "ps_poll":
                macs[op[1] % count].send_ps_poll(aid=1 + op[1])
            elif op[0] == "null":
                source = op[1] % count
                macs[source].send_null(
                    macs[(source + 1 + op[2] % (count - 1)) % count].address,
                    power_management=bool(op[2] % 2))
            elif op[0] == "energy":
                self.jammer.transmit_energy(op[1], op[2])
            elif op[0] == "foreign":
                self.hear(("another", "MAC"))
            elif op[0] in ("odd", "cts"):
                self.hear(make_cts(STRANGER, op[1]) if op[0] == "cts"
                          else OddFrame(
                              fc=FrameControl(type=FrameType.DATA),
                              duration_us=op[2],
                              addr1=macs[op[1] % count].address,
                              addr2=STRANGER, addr3=STRANGER, body=bytes(30)))
            elif op[0] == "run":
                sim.run(until=sim.now + op[1])
            elif op[0] == "poke":
                op[1](self)
            elif op[0] == "crash":
                macs[op[1] % count].crash()
            else:
                getattr(macs[op[1] % count].radio, op[0])()
        except SimulationError as exc:
            self.log.append(("raised", str(exc)))

    def snapshot(self):
        macs = [tuple((slot, self.describe(getattr(mac, slot)))
                      for slot in DcfMac.__slots__) for mac in self.macs]
        radios = [(radio.name, radio._state.value, radio._cca_busy,
                   [(self.describe(tx), repr(power))
                    for tx, power in radio._arrivals.items()],
                   self.describe(radio._locked),
                   self.callback(radio.on_cca_busy),
                   self.callback(radio.on_cca_idle),
                   self.describe(radio._rx_timer),
                   hash(radio._rng.getstate()))
                  for radio in [mac.radio for mac in self.macs]
                  + [self.jammer]]
        return dict(super().snapshot(), macs=macs, radios=radios,
                    sent=[self.describe(payload)
                          for payload in self.medium.payloads])


STATION = st.integers(min_value=0, max_value=4)
MAC_OPS = st.one_of(
    st.tuples(st.just("send"), STATION, STATION,
              st.sampled_from([40, 300, 700])),
    st.tuples(st.just("send"), STATION, STATION,
              st.sampled_from([40, 300, 700])),
    st.tuples(st.sampled_from(["broadcast", "multicast", "ps_poll"]), STATION),
    st.tuples(st.just("null"), STATION, STATION),
    # A burst every radio senses, and one under every CCA threshold.
    st.tuples(st.just("energy"), st.sampled_from([3e-5, 4e-4, 3e-3]),
              st.sampled_from([1e-3, 1e-8])),
    # From the bare radio: another MAC's payload, a Dot11Frame subclass
    # for a station, and third parties' reservations (none, short, long:
    # they nest).
    st.tuples(st.just("foreign")),
    st.tuples(st.just("odd"), STATION, st.sampled_from([0, 900])),
    st.tuples(st.just("cts"), st.sampled_from([0, 120, 900, 4000])),
    st.tuples(st.sampled_from(["sleep", "wake", "crash"]), STATION),
    st.tuples(st.just("run"),
              st.sampled_from([1e-6, 2e-5, 5e-5, 3e-4, 2e-3])),
    st.tuples(st.just("run"),
              st.sampled_from([1e-6, 2e-5, 5e-5, 3e-4, 2e-3])))

WORLDS = {"radio": RadioWorld, "mac": MacWorld}

#: What a drawn schedule plays on: world -> (its options, its ops).
DRAWN = {
    "radio": (st.fixed_dictionaries({
        "radios": st.integers(2, 6),
        "capture": st.sampled_from(["on", "off", "odd"]),
        "subclass_at": st.sampled_from([None, 0, 1]),
        "error_model": st.sampled_from(["ber", "ber", "fixed", "threshold",
                                        "subclass"]),
        "traced": st.booleans()}), RADIO_OPS),
    # Where the special stations sit: all plain, or one of each kind.
    "mac": (st.builds(
        lambda roles, **options: dict(roles, **options), st.sampled_from([
            {}, dict(subclass_at=0), dict(subclass_at=1, ideal_at=0),
            dict(ideal_at=1, listening_at=0), dict(sniffer_at=0, ideal_at=2),
            dict(subclass_at=3, ideal_at=2, listening_at=1, sniffer_at=0)]),
        stations=st.integers(2, 5), per=st.sampled_from([None, None, 0.3]),
        rts=st.booleans()), MAC_OPS),
}


def _play(name, kernel, options, schedule):
    """``schedule`` played on a fresh world, then drained: the world's
    snapshot after every op."""
    world = WORLDS[name](kernel, **options)
    frames = []
    for step, op in enumerate(schedule + [("run", 5e-3)]):
        world.apply(op, step)
        frames.append(world.snapshot())
    return frames


def _same(reference, compiled, schedule):
    for step, (expected, got) in enumerate(zip(reference, compiled)):
        assert got == expected, f"diverged after step {step}: " \
            f"{schedule[min(step, len(schedule) - 1)]}"


@pytest.mark.parametrize("world, examples", [("mac", 120), ("radio", 150)])
def test_drawn_schedules_run_alike_on_both_kernels(world, examples):
    options, ops = DRAWN[world]

    @settings(max_examples=examples, deadline=None)
    @given(options=options, schedule=st.lists(ops, min_size=1, max_size=40))
    def play(options, schedule):
        _same(_play(world, "python", options, schedule),
              _play(world, "c", options, schedule), schedule)
    play()


# --- the slots each world binds ----------------------------------------------

#: By-name reads of the fields the twins read by offset, on the logged
#: subclasses below; emptied at the start of every case.
READS = []


def _logged(cls, *fields):
    """A subclass of ``cls`` whose ``fields`` log each by-name read."""
    def field(name):
        member = vars(cls)[name]      # the __slots__ member descriptor

        def read(self):
            READS.append(f"{cls.__name__}.{name}")
            return member.__get__(self, cls)
        return property(read, member.__set__)
    return type(f"Logged{cls.__name__}", (cls,),
                {"__slots__": (), **{name: field(name) for name in fields}})


LoggedTransmission = _logged(Transmission, "mode", "duration", "size_bits",
                             "payload")
LoggedPhyMode = _logged(PhyMode, "name", "modulation")
LoggedModulation = _logged(Modulation, "processing_gain_db",
                           "coding_gain_db", "bits_per_symbol", "code_rate")
LoggedCaptureModel = _logged(CaptureModel, "enabled", "threshold_db")
LoggedRadioConfig = _logged(RadioConfig, "preamble_detection_snr_db")
LoggedTraceLog = _logged(TraceLog, "enabled")
LoggedCounter = _logged(Counter, "_counts")


def _recast(cls, value):
    """``value``'s fields in an instance of ``cls``."""
    return cls(**{field.name: getattr(value, field.name)
                  for field in dataclasses.fields(value)})


def _frames(world, remake):
    for index, frame in enumerate(world.pool):
        world.pool[index] = remake(frame)


def _modes(world, remake):
    for frame in world.pool:
        frame.mode = remake(frame.mode)


def _radios(world, slot, remake):
    for radio in world.radios:
        setattr(radio, slot, remake(getattr(radio, slot)))


def _trace_log(world):
    world.sim.trace = LoggedTraceLog(enabled=world.sim.trace.enabled)
    _radios(world, "_trace", lambda _old: world.sim.trace)


#: A world whose frames, modes or radio holders are subclass instances of
#: what the radio twins read by offset: name -> (world -> None).
ODD = {
    "the frames are a Transmission subclass": lambda world: _frames(
        world, lambda frame: LoggedTransmission(
            frame.sender, frame.payload, frame.size_bits, frame.mode,
            frame.power_watts, frame.start_time, frame.duration)),
    "the modes are a PhyMode subclass": lambda world: _modes(
        world, lambda mode: _recast(LoggedPhyMode, mode)),
    "the modulations are a Modulation subclass": lambda world: _modes(
        world, lambda mode: dataclasses.replace(
            mode, modulation=_recast(LoggedModulation, mode.modulation))),
    "the capture model is a CaptureModel subclass": lambda world: _radios(
        world, "_capture", lambda capture: _recast(LoggedCaptureModel, capture)
        if type(capture) is CaptureModel else capture),
    "the config is a RadioConfig subclass": lambda world: _radios(
        world, "config", lambda config: _recast(LoggedRadioConfig, config)),
    "the trace log is a TraceLog subclass": _trace_log,
}


def _call(name, side, obj, sim, args, log):
    """Call ``obj``'s slot ``name`` as ``side`` serves it; log a raise."""
    slot = MethodType(getattr(sim._ext, name), obj) if side == "twin" \
        else getattr(obj, name)
    try:
        return slot(*args)
    except Exception as exc:
        log.append(("raised", type(exc).__name__, str(exc)))


def test_bind_serves_a_twin_to_exact_classes_on_the_compiled_kernel():
    plain = MacWorld("c", 2, subclass_at=1)
    odd_radio = MacWorld("c", 2, radio_class=WatchedRadio)
    python = MacWorld("python", 2)
    mac, subclass = plain.macs
    odd_nav = OddNav(plain.sim)
    cases = [(plain.sim, SIMULATOR, True), (python.sim, SIMULATOR, False),
             (mac, MAC, True), (subclass, MAC, False),
             (odd_radio.macs[0], MAC, False), (python.macs[0], MAC, False),
             (mac.radio, RADIO, True), (odd_radio.macs[0].radio, RADIO, False),
             (python.macs[0].radio, RADIO, False), (subclass.nav, NAV, True),
             (odd_nav, NAV, False), (python.macs[0].nav, NAV, False)]
    ext = plain.sim._ext
    for obj, table, compiled in cases:
        side, owner = ("twin", ext) if compiled else ("reference", type(obj))
        before = tally.copy()
        sim = obj if table is SIMULATOR else getattr(obj, "sim", None) \
            or obj._sim
        for name, value in bind(obj, table, sim).items():
            assert value.__func__ is getattr(owner, name), (obj, name)
            assert value.__self__ is obj and value.__name__ == name
            assert tally[table.owner, name, side] \
                == before[table.owner, name, side] + 1
    # What objects installed when they were built, not just what bind
    # would hand them now.
    assert plain.sim._push.__self__ is plain.sim._heap
    assert plain.sim._arm is ext.arm and python.sim._arm.__module__ \
        == "repro.core.engine"
    for world, compiled in ((plain, True), (odd_radio, False),
                            (python, False)):
        radio = world.macs[0].radio
        owner = ext if compiled else type(radio)
        assert radio._edges[0] is radio
        assert [edge.__func__ for edge in radio._edges[1:]] \
            == [getattr(owner, "arrival_begins"),
                getattr(owner, "arrival_ends")]
        assert radio._rx_timer._callback.__func__ \
            is getattr(owner, "_reception_complete")
        assert radio._rx_timer._callback.__self__ is radio
        assert radio._tx_done.__func__ is getattr(owner, "_tx_complete")
        assert radio._tx_done.__self__ is radio
        assert radio._transmit is getattr(owner, "transmit")
    for station, compiled in ((mac, True), (subclass, False),
                              (odd_radio.macs[0], False),
                              (python.macs[0], False)):
        owner = ext if compiled else type(station)
        radio = station.radio
        for slot, name in (("on_cca_idle", "_maybe_start_ifs"),
                           ("on_cca_busy", "_cancel_access_timers"),
                           ("on_rx_end", "phy_rx_end")):
            assert getattr(radio, slot).__func__ is getattr(owner, name)
            assert getattr(radio, slot).__self__ is station
        assert station._ifs._callback.__func__ \
            is getattr(owner, "_ifs_expired")
        assert station.nav._on_expire is radio.on_cca_idle
        # The MAC's own call sites take the radio's side.
        assert station._start_ifs is getattr(owner, "_maybe_start_ifs")
        assert station._freeze is getattr(owner, "_cancel_access_timers")
        assert radio.on_tx_end.__func__ is DcfMac.phy_tx_end
        # Its sends take its radio's side: a subclass MAC on a plain
        # radio sends through the twin.
        sender = ext if type(radio) is Radio and radio.sim._ext else Radio
        assert radio._transmit is getattr(sender, "transmit")
        # Out of scope stays Python: the access win, the response timer.
        assert station._countdown._callback.__func__ is DcfMac._access_won
        assert station._response._callback.__func__ \
            is DcfMac._response_timeout
    # A NAV decides for itself: a subclass MAC's plain Nav is compiled.
    assert subclass.nav._timer._callback.__func__ is ext._fire
    assert python.macs[0].nav._timer._callback.__func__ is Nav._fire


# --- the simulator: one kernel against the other -----------------------------

#: Callbacks for the entries; these simulators never run.
begins, ends, tick = max, min, tuple

TIMES = st.sampled_from([0.0, 0.25, 0.5, 0.1 + 0.2, 0.3, 1, 2, 3.5])
PRIOR = st.lists(st.tuples(st.sampled_from(["handle", "raw", "arm",
                                            "cancel", "pop", "clear"]),
                           TIMES, st.integers(0, 2)), max_size=12)
PLAN = st.lists(st.tuples(st.sampled_from([0.0, 1e-9, 2e-9]),
                          st.sampled_from([0, 1e-7, 0.2, 3.3e-7])),
                max_size=3)
SIMULATOR_CALLS = {
    "_heap": st.just(()), "_pop": st.just(()), "_next_seq": st.just(()),
    "_push": st.tuples(TIMES, st.sampled_from(["raw", "timer"])),
    "_arm": st.tuples(st.integers(0, 2), TIMES),
    "_fan_out": st.tuples(PLAN, st.booleans(),
                          st.sampled_from([1e-3, 0.3, 1]),
                          st.sampled_from(["omitted", None, 0.1, 1,
                                           Fraction(1, 3), "extra"])),
}


def _plain(item):
    if isinstance(item, Timer):
        return ("timer", item._armed, item._version, repr(item._time))
    if isinstance(item, tuple):
        return tuple(map(_plain, item))
    return getattr(item, "__name__", None) or repr(item)


def _simulator_case(kernel, name, prior, call):
    sim = Simulator(kernel=kernel)
    timers = [Timer(sim, tick) for _ in range(3)]
    for kind, time, index in prior:
        if kind == "handle":
            sim.schedule_at(time, tick)
        elif kind == "raw":
            sim.schedule_fast_at(time, ends, "air")
        elif kind == "arm":
            timers[index].schedule_at(time)
        elif kind == "cancel":
            timers[index].cancel()
        elif kind == "clear":
            sim.clear()
        elif sim._heap:
            sim._pop()
    if name == "_push":
        time, shape = call
        entry = (time, sim._next_seq()) + (
            (timers[0], timers[0]._version) if shape == "timer"
            else (None, begins, ("air", 1e-9)))
        args = (entry,)
    elif name == "_arm":
        args = (timers[call[0]], call[1])
    elif name == "_fan_out":
        plan, malformed, duration, start = call
        entries = [(begins, ends, power, delay) for power, delay in plan]
        if malformed:
            entries.append((begins, ends, 1e-9))
        args = (sim, entries, "air", duration) + (
            () if start == "omitted" else (start, 0.0) if start == "extra"
            else (start,))
    else:
        args = ()
    heap = sim._heap
    try:
        result = _plain((len(heap), bool(heap), heap[0]) if name == "_heap"
                        else getattr(sim, name)(*args))
    except Exception as exc:       # the messages are each side's own
        result = ("raised", type(exc).__name__)
    return (result, [_plain(entry) for entry in sorted(
                sim._heap, key=lambda entry: entry[:2])],
            [_plain(timer) for timer in timers], sim._scheduled,
            sim._cancelled_events, sim._next_seq())


#: What the one ``_queue`` slot hands a simulator, part by part.
@pytest.mark.parametrize("name", list(SIMULATOR_CALLS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_simulator_slot_is_its_reference(name, data):
    prior = data.draw(PRIOR)
    call = data.draw(SIMULATOR_CALLS[name])
    assert _simulator_case("c", name, prior, call) \
        == _simulator_case("python", name, prior, call)


# --- a radio: two copies of one compiled world -------------------------------

def _probe(world):
    world.registry = MetricsRegistry()
    MediumProbe(world.medium, world.registry).install()


def _digest(world):
    world.sim.trace = TraceDigest()
    _radios(world, "_trace", lambda _old: world.sim.trace)


def _shard(sim, propagation):
    return ShardMedium(sim, propagation, export_channels={1})


#: A world whose medium or trace sink is not the plain one: name ->
#: (``RadioWorld`` options, world -> None).
ARMED = {
    "a MediumProbe counts the frames": ({}, _probe),
    "the medium is a ShardMedium": ({"medium_class": _shard}, None),
    "the trace sink is a TraceDigest": ({}, _digest),
}


def _air(world):
    """What the radios' snapshot leaves out: the medium's plan counters,
    a shard's exports, a probe's metrics."""
    registry = getattr(world, "registry", None)
    return (world.medium.plan_hits, world.medium.plan_misses,
            [tuple(map(repr, record))
             for record in getattr(world.medium, "outbox", ())],
            registry and [
                (repr(key), [repr(getattr(metric, slot))
                             for slot in type(metric).__slots__
                             if slot not in ("key", "wall")])
                for key, metric in registry._metrics.items()])


def _radio_args(world, radio, name, tx, power):
    frame = world.pool[tx]
    return {"arrival_begins": (frame, power), "arrival_ends": (frame,),
            "_reception_complete": (),
            # A pool frame's payload, size and mode: foreign modes, bare
            # energy, no bits and a negative size among them.
            "transmit": (frame.payload, frame.size_bits, frame.mode),
            # This transmission's epoch, or the one before a power_off().
            "_tx_complete": (radio._tx_epoch - tx % 2,)}[name]


def _radio_world(world_options, schedule):
    options = dict(world_options)
    odd = options.pop("odd", None)
    extra, arm = ARMED.get(options.pop("armed", None), ({}, None))
    world = RadioWorld("c", **options, **extra)
    if odd is not None:
        ODD[odd](world)
    if arm is not None:
        arm(world)
    for step, op in enumerate(schedule):
        world.apply(op, step)
    return world


def _radio_row(side, name, world_options, schedule, index, tx, power,
               before=False):
    """Radio ``index`` of a world after ``schedule``: what it and the air
    are after the slot's call (and, ``before``, what they were)."""
    del READS[:]
    world = _radio_world(world_options, schedule)
    radio = world.radios[index % len(world.radios)]
    seen = before and (world.snapshot(), _air(world))
    result = _call(name, side, radio, world.sim,
                   _radio_args(world, radio, name, tx, power), world.log)
    after = world.snapshot(), list(READS), _air(world), repr(result)
    return (seen, after) if before else after


@pytest.mark.parametrize("name", list(RADIO.slots))
@settings(max_examples=150, deadline=None)
@given(world_options=st.fixed_dictionaries({
           "radios": st.integers(2, 4), "subclass_at": st.sampled_from(
               [None, 1]), "capture": st.sampled_from(["on", "off", "odd"]),
           "error_model": st.sampled_from(["ber", "fixed", "subclass"]),
           "traced": st.booleans(),
           "odd": st.sampled_from([None, None, *sorted(ODD)]),
           "armed": st.sampled_from([None, None, *sorted(ARMED)])}),
       schedule=st.lists(RADIO_OPS, max_size=12),
       index=st.sampled_from([0, 0, 2]), tx=st.integers(0, 8),
       power=POWERS)
def test_every_radio_slot_is_its_reference(name, world_options, schedule,
                                           index, tx, power):
    case = (name, world_options, schedule, index, tx, power)
    assert _radio_row("twin", *case) == _radio_row("reference", *case)


def _edge_cuts(schedule, options):
    """Each edge of ``schedule`` and the reception tail, called alone on
    the state the schedule leaves before that edge: the twin's outcomes."""
    for step, op in enumerate(schedule):
        calls = [("_reception_complete", 0, None)]
        if op[0] in ("begins", "ends"):
            calls.append((f"arrival_{op[0]}", op[2], (op + (None,))[3]))
        for name, tx, power in calls:
            case = (name, options, schedule[:step], 1, tx, power)
            twin = _radio_row("twin", *case)
            assert twin == _radio_row("reference", *case), (step, name)
            yield twin


def _rx_ends(frames):
    return [entry for entry in frames[-1]["log"] if entry[1] == "rx-end"]


def _interference(frames, step):
    """Radio ``r1``'s tracked interference after ``step``."""
    return frames[step]["radios"][1][7][4]


def _eifs_after_corrupt(frames):
    waiting = dict(frames[5]["macs"][1])
    assert waiting["counters"] == [("rx_corrupt", 1)]
    assert waiting["_use_eifs"] is True
    armed, at = waiting["_ifs"][1], float(waiting["_ifs"][3])
    assert armed and at == pytest.approx(1e-4 + 4e-4 + EIFS, abs=1e-6)


#: Schedules a walk seldom reaches: name -> (world, its options, the
#: schedule, the one right outcome (frames) -> None, or None).
CORNERS = {
    # The locked frame's energy has left the table when a weaker burst
    # arrives: sum - locked_power is negative and clamps to 0.0.
    "negative interference clamps": ("radio", {}, [
        ("begins", 1, 0, 3e-10), ("ends", 1, 0), ("begins", 1, 5, 1e-10),
        ("run", 2e-3)], lambda frames: _interference(frames, 2) == "0.0"),
    # Two half-threshold bursts sum to the CCA threshold exactly.
    "a sum on the CCA line": ("radio", {}, [
        ("begins", 1, 5, CCA / 2.0), ("begins", 1, 6, CCA / 2.0),
        ("ends", 1, 5), ("ends", 1, 6)],
        lambda frames: [entry[1] for entry in frames[-1]["log"]] == [
            "cca-busy", "cca-idle"]),
    # Capture: the abort runs in Python, the relock in C, mid-frame.
    "capture relocks": ("radio", {}, [
        ("begins", 1, 2, 3e-10), ("run", 1e-4), ("begins", 1, 1, 6e-9),
        ("run", 1e-4), ("begins", 1, 5, 2e-10), ("ends", 1, 2),
        ("run", 2e-3)], lambda frames: frames[2]["radios"][1][4] == "pool1"),
    # A table whose builtins.sum is not a float: the lock, the
    # interference refresh and the CCA verdict each defer to Python.
    "a table that does not sum to a float": ("radio", {}, [
        ("begins", 1, 5, OddWatts(1e-10)), ("begins", 1, 0, 3e-10),
        ("begins", 1, 6, OddWatts(2e-10)), ("ends", 1, 5), ("run", 1e-3),
        ("begins", 1, 4, 1e-6), ("ends", 1, 4), ("ends", 1, 6)],
        lambda frames: frames[1]["radios"][1][4] == "pool0"   # it did lock
        and _interference(frames, 3) != "0.0"),               # and refreshed
    # The tail under interference that outlasts the frame: the SINR
    # integrates a partial overlap and the radio stays CCA-busy.
    "a tail under lasting interference": ("radio", {}, [
        ("begins", 1, 0, LOCKED), ("run", 1e-4), ("begins", 1, 5, 2e-10),
        ("ends", 1, 0), ("run", 2e-4), ("ends", 1, 5)],
        lambda frames: 4.0 < float(_rx_ends(frames)[0][5]) < 5.0  # not 28.3
        and len(_rx_ends(frames)) == 1
        and frames[4]["radios"][1][1:3] == ("idle", True)),
    # A table that is a dict subclass: the whole tail is the reference's.
    "a table that is not a plain dict": ("radio", {}, [
        ("begins", 1, 0, LOCKED), ("begins", 1, 5, 1e-10),
        ("poke", 1, lambda world, rx: setattr(
            rx, "_arrivals", type("Table", (dict,), {})(rx._arrivals))),
        ("run", 1e-3)], lambda frames: len(_rx_ends(frames)) == 1),
    # Station 0's frame reaches station 1 corrupt (PER 1) while a burst
    # keeps the medium busy past the frame's end, so the wait is armed
    # by the burst's idle edge — with _use_eifs already set.
    "EIFS follows a corrupt frame once the air clears": (
        "mac", {"stations": 2, "per": 1.0}, [
            ("send", 0, 0, 40), ("run", 1e-4), ("send", 1, 0, 40),
            ("energy", 4e-4, 1e-6), ("run", 4e-4 - 1e-6), ("run", 2e-6)],
        _eifs_after_corrupt),
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_each_corner_is_the_reference_s(corner):
    """Played whole on both kernels and held to its outcome; a radio
    corner is also cut before each of its edges: that edge, and the
    reception tail, called alone."""
    world, options, schedule, outcome = CORNERS[corner]
    compiled = _play(world, "c", options, schedule)
    _same(_play(world, "python", options, schedule), compiled, schedule)
    assert outcome is None or outcome(compiled) in (None, True)
    if world == "radio":
        for _ in _edge_cuts(schedule, options):
            pass


@pytest.mark.parametrize("odd", sorted(ODD))
@pytest.mark.parametrize("corner", ["capture relocks",
                                    "a tail under lasting interference"])
def test_a_subclass_holder_hands_each_step_to_the_reference(corner, odd):
    """A corner schedule that locks, captures, refreshes and ends a
    reception, with one class the twins read by offset subclassed: each
    edge and tail, called alone, is the reference's, its reads too."""
    read = set()
    for twin in _edge_cuts(CORNERS[corner][2], {"odd": odd}):
        read.update(twin[1])
    assert read, "the subclass was never read: the row tests nothing"


def _logged(before, after):
    """The events the call logged: ``(source, event)`` pairs."""
    return [entry[:2] for entry in after[0]["log"][len(before[0]["log"]):]]


def _refused(before, after):
    """The reference's SimulationError, nothing written."""
    return _logged(before, after) == [("raised", "SimulationError")] \
        and after[0]["radios"] == before[0]["radios"] \
        and after[0]["heap"] == before[0]["heap"]


def _plans(hits, misses):
    return lambda before, after: (after[2][0] - before[1][0],
                                  after[2][1] - before[1][1]) == (hits, misses)


#: Named states of a radio's transmit slots: name -> (slot, armed world,
#: schedule, pool frame, the one right outcome (before, after) -> bool).
SENDS = {
    "from IDLE, an empty table": (
        "transmit", None, [], 0, lambda before, after: _logged(
            before, after) == [("r1", "state"), ("r1", "cca-busy")]),
    "from IDLE, energy over the CCA threshold": (
        "transmit", None, [("begins", 1, 5, 2 * CCA)], 0,
        lambda before, after: _logged(before, after) == [("r1", "state")]),
    "during a locked reception": (
        "transmit", None, [("begins", 1, 0, LOCKED)], 1,
        lambda before, after: before[0]["radios"][1][4] == "pool0"
        and after[0]["radios"][1][1:5] == ("tx", True, [("pool0", repr(
            LOCKED))], None)),
    "in TX": ("transmit", None, [("transmit", 1, 0)], 0, _refused),
    "asleep": ("transmit", None, [("sleep", 1)], 0, _refused),
    "with a mode outside the standard": ("transmit", None, [], 4, _refused),
    "with a negative size": (
        "transmit", None, [], 8, lambda before, after: _logged(
            before, after)[-1:] == [("raised", "ConfigurationError")]),
    "with no on_state_change": (
        "transmit", None, [("poke", 1, lambda world, rx: setattr(
            rx, "on_state_change", None))], 0,
        lambda before, after: _logged(before, after) == [("r1", "cca-busy")]),
    "traced into a TraceLog": (
        "transmit", None, [], 0, lambda before, after:
        [record[2] for record in after[0]["trace"]] == ["phy-tx-start"]),
    "traced into a TraceDigest": (
        "transmit", "the trace sink is a TraceDigest", [], 0,
        lambda before, after: after[0]["trace"] != before[0]["trace"]),
    "on a plan miss": ("transmit", None, [], 0, _plans(0, 1)),
    "on a plan hit": (
        "transmit", None, [("transmit", 1, 0), ("run", 2e-3)], 0,
        _plans(1, 0)),
    "through a MediumProbe": (
        "transmit", "a MediumProbe counts the frames", [], 0,
        lambda before, after: [values for key, values in after[2][3]
                               if "'frames'" in key] == [["1"]]),
    "through a ShardMedium": (
        "transmit", "the medium is a ShardMedium", [], 0,
        lambda before, after: len(after[2][2]) == len(before[1][2]) + 1),
    "the burst ends": (
        "_tx_complete", None, [("transmit", 1, 0)], 0,
        lambda before, after: _logged(before, after) == [
            ("r1", "state"), ("r1", "cca-idle"), ("r1", "tx-end")]),
    "a stale end after power_off mid-burst": (
        "_tx_complete", None, [("transmit", 1, 0), ("power_off", 1)], 1,
        lambda before, after: after[0] == before[0]),
}


@pytest.mark.parametrize("row", sorted(SENDS))
def test_each_named_send_is_the_reference_s(row):
    name, armed, schedule, tx, outcome = SENDS[row]
    case = (name, {"armed": armed}, schedule, 1, tx, None)
    twin = _radio_row("twin", *case, before=True)
    reference = _radio_row("reference", *case, before=True)
    assert twin == reference
    assert outcome(*reference), "the reference is not what the row names"


# --- a MAC and its NAV: two copies of one compiled world ---------------------

class OddFloat(float):
    """A float that is not exactly a float: no arithmetic on it in C."""


class OddTimer(Timer):
    __slots__ = ()


class OddTable(dict):
    """A table that is not exactly a dict."""


class OddNav(Nav):
    __slots__ = ()


class SlimCounter:
    """What a ``Counter`` does, in a class that is not one."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts = {}

    def incr(self, name, amount=1):
        self._counts[name] = self._counts.get(name, 0) + amount


def _waiting(world, mac):
    """Contending, the IFS wait not yet armed."""
    world.sim.run(until=world.sim.now + 1e-3)
    mac.send(world.macs[1].address, bytes(40))
    mac._ifs.cancel()


def _counting_down(world, mac):
    """Two and a half slots into a countdown of seven."""
    mac.send(world.macs[1].address, bytes(40))
    mac._backoff_remaining = 7
    world.sim.run(until=world.sim.now + DIFS + 2.5 * SLOT)


def _on_a_boundary(world, mac):
    """Counting down, the clock exactly on the third slot boundary."""
    _counting_down(world, mac)
    world.sim._now = mac._countdown_anchor + SLOT + SLOT + SLOT  # a fold


BASES = {"waiting": _waiting, "counting down": _counting_down,
         "on a slot boundary": _on_a_boundary,
         "frozen": lambda world, mac: (_counting_down(world, mac),
                                       mac._countdown.cancel())}


def _swap(path, make):
    """Set the field ``path`` names (``"mac.nav._until"``) to ``make(old)``."""
    *owners, name = path.split(".")

    def poke(world, mac, frame):
        obj = {"mac": mac, "sim": world.sim}[owners[0]]
        for owner in owners[1:]:
            obj = getattr(obj, owner)
        setattr(obj, name, make(getattr(obj, name)))
    return poke


def _set(path, value):
    return _swap(path, lambda _old: value)


def _plant(verdict):
    return lambda world, mac, frame: vars(frame).__setitem__(
        "rx_verdict", verdict)


def _table(*shares):
    return lambda world, mac, frame: mac.radio._arrivals.update(
        (f"e{index}", mac.radio._cca_threshold_watts * share)
        for index, share in enumerate(shares))


def _fresh(timer):
    return OddTimer(timer._sim, timer._callback)


def _slots_in(elapsed):
    """The clock ``elapsed`` slots past the countdown's anchor, as a run
    to there leaves it."""
    return lambda world, mac, frame: setattr(
        world.sim, "_now", mac._countdown_anchor + elapsed * SLOT)


#: Named states: name -> (base, poke(world, mac, frame)).
STATES = {
    # Every reason ``_maybe_start_ifs`` has not to arm, and the one to.
    "nothing holds it back": ("waiting", lambda world, mac, frame: None),
    "the IFS wait is running": (
        "waiting", lambda world, mac, frame: mac._ifs.schedule(1e-5)),
    "the countdown is running": (
        "waiting", lambda world, mac, frame: mac._countdown.schedule(1e-4)),
    "nothing to send": ("waiting", _set("mac._current", None)),
    "awaiting a response": ("waiting", _set("mac._awaiting", "ack")),
    "a transmission is in hand": (
        "waiting", _set("mac._tx_continuation", _boom)),
    "_pending_send is armed": (
        "waiting", lambda world, mac, frame: mac._pending_send.schedule(1e-5)),
    "the NAV holds": ("waiting", _set("mac.nav._until", 1.0)),
    "the NAV ends exactly now": (
        "waiting", lambda world, mac, frame: setattr(
            mac.nav, "_until", world.sim.now)),
    "a longer reservation is running": (
        "waiting", lambda world, mac, frame: mac.nav.set_until(
            world.sim.now + 4000 * 1e-6)),
    "the NAV ends where the reservation does": (
        "waiting", lambda world, mac, frame: setattr(
            mac.nav, "_until", world.sim.now + frame.rx_verdict[2])),
    "the NAV was extended past its expiry": (
        "waiting", lambda world, mac, frame: setattr(
            mac.nav, "_until", world.sim.now + 1e-4)),
    "the radio is asleep": (
        "waiting", lambda world, mac, frame: mac.radio.sleep()),
    "energy on the CCA threshold": ("waiting", _table(0.5, 0.5)),
    "energy under the CCA threshold": ("waiting", _table(0.25)),
    "EIFS is owed": ("waiting", _set("mac._use_eifs", True)),
    "a spent counter": ("waiting", _set("mac._backoff_remaining", 0)),
    "no counter: a fresh draw": (
        "waiting", _set("mac._backoff_remaining", None)),
    "the clock on a slot boundary": (
        "on a slot boundary", lambda world, mac, frame: None),
    # The freeze replays every slot boundary the clock has passed.
    **{f"{elapsed} slots into the countdown": (
        "counting down", _slots_in(elapsed)) for elapsed in (0.0, 0.5, 6.5)},
    "the countdown's own event due now": (
        "counting down", lambda world, mac, frame: setattr(
            world.sim, "_now", mac._countdown._time)),
    # Fields of the wrong type: the reference's whole call.
    "_slot_time is a float subclass": (
        "counting down", _swap("mac._slot_time", OddFloat)),
    "_countdown_anchor is a float subclass": (
        "counting down", _swap("mac._countdown_anchor", OddFloat)),
    "_countdown_remaining is a bool": (
        "counting down", _set("mac._countdown_remaining", True)),
    "_countdown_remaining overflows a word": (
        "counting down", _set("mac._countdown_remaining", 2 ** 70)),
    "_backoff_remaining is a bool": (
        "counting down", _set("mac._backoff_remaining", True)),
    "_ifs is a Timer subclass": ("counting down", _swap("mac._ifs", _fresh)),
    "_use_eifs is an int": ("counting down", _set("mac._use_eifs", 1)),
    "_use_eifs is an int 0": ("waiting", _set("mac._use_eifs", 0)),
    "_difs is a float subclass": ("counting down",
                                  _swap("mac._difs", OddFloat)),
    "nav._until is a float subclass": (
        "counting down", _swap("mac.nav._until", OddFloat)),
    "nav._until is an int": ("waiting", _set("mac.nav._until", 0)),
    "the clock is a float subclass": ("counting down",
                                      _swap("sim._now", OddFloat)),
    "the table is a dict subclass": (
        "counting down", _swap("mac.radio._arrivals",
                               lambda _old: OddTable(a=1e-13))),
    "the threshold is an int": (
        "counting down", _set("mac.radio._cca_threshold_watts", 1)),
    "counters is a look-alike, not a Counter": (
        "waiting", _swap("mac.counters", lambda _old: SlimCounter())),
    "counters is a Counter subclass": (
        "waiting", _swap("mac.counters",
                         lambda old: LoggedCounter().merge(old))),
    "_counts is a dict subclass": (
        "waiting", _swap("mac.counters._counts", lambda _old: OddTable())),
    "_counts holds a float": (
        "waiting", lambda world, mac, frame: mac.counters._counts.update(
            nav_updates=1.5, rx_corrupt=2.5)),
    "_counts holds a bool": (
        "waiting", lambda world, mac, frame: mac.counters._counts.update(
            nav_updates=True, rx_corrupt=True)),
    "_controllers is a dict subclass": (
        "waiting", _swap("mac._controllers", lambda _old: OddTable())),
    "the NAV is a Nav subclass": (
        "waiting", _swap("mac.nav", lambda nav: OddNav(
            nav._sim, on_expire=nav._on_expire))),
    "nav._timer is a Timer subclass": (
        "waiting", _swap("mac.nav._timer", _fresh)),
    "_address_value is a bool": ("waiting", _set("mac._address_value", True)),
    "a sniffer listens": (
        "waiting", lambda world, mac, frame: setattr(
            mac, "sniffer", lambda frame, snr_db: world.log.append(
                ("sniffed", repr(frame))))),
    # Verdicts the compiled demux cannot read: the method's whole call.
    "a verdict too short": ("waiting", _plant((STRANGER.value, False, 9e-4))),
    "a verdict that is a list": (
        "waiting", _plant([BYSTANDER.value, False, 9e-4, STRANGER.value])),
    "a verdict with an int reservation": (
        "waiting", _plant((BYSTANDER.value, False, 1, STRANGER.value))),
    "a verdict with an int for the group bit": (
        "waiting", _plant((BYSTANDER.value, 0, 9e-4, STRANGER.value))),
    "a verdict with a float address": (
        "waiting", _plant((float(BYSTANDER.value), False, 9e-4,
                           STRANGER.value))),
    "a verdict naming a transmitter by its address": (
        "waiting", _plant((BYSTANDER.value, False, 9e-4, STRANGER))),
}


def _ifs(outcome):
    """The station's IFS deadline, None while the wait is not armed."""
    ifs = dict(outcome[0]["macs"][0])["_ifs"]
    return ifs[3] if ifs[1] else None


def _access_won(outcome):
    """Data frames counted, and the radio's state."""
    return dict(outcome[1]).get("tx_data"), outcome[0]["radios"][0][1]


def _countdown(outcome):
    """Counting down, the counter as drawn, and drawn above zero."""
    mac = dict(outcome[0]["macs"][0])
    return (mac["_countdown"][1], mac["_countdown_remaining"]
            == mac["_backoff_remaining"], mac["_backoff_remaining"] > 0)


def _frozen(outcome):
    """The counter a freeze left, and whether the countdown still runs."""
    mac = dict(outcome[0]["macs"][0])
    return mac["_backoff_remaining"], mac["_countdown"][1]


def _nav(outcome):
    """The NAV's deadline, whether its timer is armed, its version, and
    the reservations counted."""
    _, until, _, (_, armed, version, _, _) = outcome[3]
    return until, armed, version, dict(outcome[1]).get("nav_updates")


NOW = 1e-3      # where the "waiting" base leaves the clock

#: What the reference must itself leave in a named state, not just what
#: its twin leaves (a change that moved both alike would pass every
#: equality): (slot, state) -> (what to read off the outcome, its value).
#: The IFS wait after ``_maybe_start_ifs``, or after ``_fire`` calling
#: it: armed that long after now, or (None) not armed.
EXPECTED = {(slot, state): (_ifs, None if wait is None
                            else repr(NOW + wait))
            for slot in ("_maybe_start_ifs", "_fire")
            for state, wait in {
                "nothing holds it back": DIFS,
                "the IFS wait is running": 1e-5,
                "the countdown is running": None, "nothing to send": None,
                "awaiting a response": None,
                "a transmission is in hand": None,
                "_pending_send is armed": None, "the NAV holds": None,
                "the NAV ends exactly now": DIFS,
                "the NAV was extended past its expiry": None,
                "the radio is asleep": None,
                "energy on the CCA threshold": None,
                "energy under the CCA threshold": DIFS,
                "EIFS is owed": EIFS}.items()}
EXPECTED.update({
    ("_ifs_expired", "a spent counter"): (_access_won, (1, "tx")),
    ("_ifs_expired", "no counter: a fresh draw"): (
        _countdown, (True, True, True)),
    # 7 - 3 slots: the boundary landing exactly on now counts (`<=`).
    ("_cancel_access_timers", "the clock on a slot boundary"): (
        _frozen, (4, False)),
    ("_cancel_access_timers", "0.0 slots into the countdown"): (
        _frozen, (7, False)),
    ("_cancel_access_timers", "0.5 slots into the countdown"): (
        _frozen, (7, False)),
    ("_cancel_access_timers", "6.5 slots into the countdown"): (
        _frozen, (1, False)),
    ("_cancel_access_timers", "the countdown's own event due now"): (
        _frozen, (0, False)),
    # An overheard reservation is taken and counted, the NAV armed once;
    # a shorter one inside it counts and changes nothing; ``time <=
    # _until``: an equal end counts and is no extension — the timer is
    # never armed.
    ("phy_rx_end", "nothing holds it back"): (
        _nav, (repr(NOW + 900 * 1e-6), True, 1, 1)),
    ("phy_rx_end", "a longer reservation is running"): (
        _nav, (repr(NOW + 4000 * 1e-6), True, 1, 1)),
    ("phy_rx_end", "the NAV ends where the reservation does"): (
        _nav, (repr(NOW + 900 * 1e-6), False, 0, 1)),
})


def test_every_expectation_names_a_slot_and_a_state():
    assert {name for name, _ in EXPECTED} <= set(MAC.slots + NAV.slots)
    assert {state for _, state in EXPECTED} <= set(STATES)


#: What a MAC may be handed to demux, built afresh per copy.
FRAMES = {
    "a reservation": lambda world: make_rts(STRANGER, BYSTANDER, 900),
    "a CTS reserving nothing": lambda world: make_cts(STRANGER, 0),
    "a long CTS": lambda world: make_cts(STRANGER, 4000),
    "an ACK": lambda world: make_ack(STRANGER),
    "a PS-Poll": lambda world: make_ps_poll(STRANGER, BYSTANDER, aid=0x3FFF),
    "another MAC's payload": lambda world: ("another", "MAC"),
    "a frame subclass": lambda world: OddFrame(
        fc=FrameControl(type=FrameType.DATA), duration_us=900,
        addr1=STRANGER, addr2=STRANGER, addr3=STRANGER, body=bytes(30)),
    "an RTS to this station": lambda world: make_rts(
        STRANGER, world.macs[0].address, 300),
    "an RTS from a peer": lambda world: make_rts(
        world.macs[1].address, STRANGER, 300),
}

MAC_SLOTS = [(MAC, name) for name in MAC.slots] + [(NAV, "_fire")]


def _mac_case(side, table, name, schedule, base, pokes, frame, success,
              snr, world_options=None):
    del READS[:]
    world = MacWorld("c", 3, **(world_options or {}))
    mac, frame = world.macs[0], FRAMES[frame](world)
    steps = [lambda world, mac, frame, op=op: world.apply(op)
             for op in schedule]
    if base is not None:
        steps.append(lambda world, mac, frame: BASES[base](world, mac))
    for step in steps + [STATES[poke][1] for poke in pokes]:
        try:
            step(world, mac, frame)
        except (SimulationError, TypeError, AttributeError) as exc:
            world.log.append(("raised", str(exc)))
    args = (frame, success, snr, BASIC) if name == "phy_rx_end" else ()
    _call(name, side, mac.nav if table is NAV else mac, world.sim, args,
          world.log)
    return (world.snapshot(), sorted(mac.counters._counts.items()),
            world.describe(frame), world.describe(mac.nav),
            repr(mac.nav._until), list(READS))


def _both(*case, **options):
    return (_mac_case("twin", *case, **options),
            _mac_case("reference", *case, **options))


@pytest.mark.parametrize("state", sorted(STATES))
@pytest.mark.parametrize("table, name", MAC_SLOTS,
                         ids=[name for _, name in MAC_SLOTS])
def test_each_named_state_is_the_reference_s(table, name, state):
    rx_end = name == "phy_rx_end"   # every frame from the first state
    base = STATES[state][0]
    if name == "_maybe_start_ifs" and base == "counting down":
        base = "frozen"                 # or it returns at once
    for frame in sorted(FRAMES) if rx_end and state == "nothing holds it " \
            "back" else ["a reservation"]:
        for success in (True, False, 1, 0) if rx_end else (True,):
            twin, reference = _both(table, name, [], base, [state], frame,
                                    success, 25.0)
            assert twin == reference, (frame, success)
            if (success, frame) == (True, "a reservation") \
                    and (name, state) in EXPECTED:
                read, value = EXPECTED[name, state]
                assert read(reference) == value, read.__doc__


@pytest.mark.parametrize("table, name", MAC_SLOTS,
                         ids=[name for _, name in MAC_SLOTS])
@settings(max_examples=150, deadline=None)
@given(schedule=st.lists(MAC_OPS, max_size=8),
       base=st.sampled_from([None] + sorted(BASES)),
       pokes=st.lists(st.sampled_from(sorted(STATES)), max_size=3),
       frame=st.sampled_from(sorted(FRAMES)),
       success=st.sampled_from([True, False, 1, 0]),
       snr=st.sampled_from([25.0, 3.0, -2.5]),
       world_options=st.sampled_from([
           {}, dict(ideal_at=0), dict(listening_at=0, sniffer_at=0),
           dict(per=0.3, rts=True)]))
def test_every_mac_slot_is_its_reference(table, name, schedule, base, pokes,
                                         frame, success, snr, world_options):
    twin, reference = _both(table, name, schedule, base, pokes, frame,
                            success, snr, world_options=world_options)
    assert twin == reference


# --- the failure path --------------------------------------------------------

def _deaf_frame(world):
    mode = dataclasses.replace(
        DOT11B.modes[0], modulation=DeafModulation("deaf", 1.0))
    return Transmission(world.radios[0], "deaf", 800, mode, 1e-3, 0.0, 2e-4)


def _radio(table, deliveries, tail=False, **upcalls):
    """A radio row: ``upcalls`` set on ``r1``, ``deliveries`` (an edge
    and its frame — a pool index, or built off the world — or a field to
    set) scheduled to it, work due after them.  The first raise leaves
    ``table`` (begins inserts before anything can raise); at a ``tail``,
    the lock released, the radio IDLE short of its idle edge (taken just
    before on_rx_end), and no draw (taken once the PER is known)."""
    def setup(world):
        rx, built = world.radios[1], {}
        edges = dict(zip(("begins", "ends"), world.edges(rx)))
        for name, value in upcalls.items():
            setattr(rx, name, value)
        for time, what, target, *rest in deliveries + [
                (3e-3, "begins", 6, 1e-6), (4e-3, "ends", 6)]:
            if what == "set":
                world.sim.schedule_fast(time, setattr, rx, target, *rest)
                continue
            frame = world.pool[target] if isinstance(target, int) \
                else built.setdefault(target, target(world))
            world.sim.schedule_fast(time, edges[what], frame, *rest)

        def mend():
            world._wire(rx)
            rx.error_model = BerErrorModel()
            if rx._locked is not None and \
                    not hasattr(rx._locked_tracker, "set_interference"):
                rx._locked_tracker = rx._tracker
        return mend

    def outcome(before, raised, drained):
        failing = raised[0][2]["radios"][1]
        assert [label for label, _power in failing[3]] == table
        if tail:
            assert failing[1:3] == ("idle", True) and failing[4] is None
            assert failing[-1] == before["radios"][1][-1]
        assert drained["radios"][1][3] == [] and drained["heap"] == []
    return "radio", setup, outcome


def _dead_expiry():
    """A MAC row: station 0 has a frame to send when its NAV, set, gets
    an expiry that raises; mended, it contends again from one idle edge
    and delivers."""
    def setup(world):
        mac = world.macs[0]
        mac.send(world.macs[1].address, bytes(40))
        mac._ifs.cancel()
        mac.nav.set_until(2e-5)
        on_expire, mac.nav._on_expire = mac.nav._on_expire, _boom

        def mend():
            mac.nav._on_expire = on_expire
            mac._backoff_remaining = 3
            mac.radio.on_cca_idle()
        return mend

    def outcome(before, raised, drained):
        assert dict(dict(drained["macs"][0])["counters"])[
            "msdu_delivered"] == 1
    return "mac", setup, outcome


def _overheard(frame, factory):
    """A demux row: the bare radio sends ``frame()`` to three stations
    whose station 0 builds controllers with ``factory``; it fails before
    its NAV is reached, no controller inserted.  Mended, station 1 sends
    to station 0 and delivers.  A frame with no verdict fails every
    station; otherwise the spared stations took the reservation."""
    def setup(world):
        mac = world.macs[0]
        kept = mac._rate_factory
        mac._rate_factory = factory or kept
        world.hear(frame())

        def mend():
            mac._rate_factory = kept
            world.macs[1].send(mac.address, bytes(40))
        return mend

    def outcome(before, raised, drained):
        failed = dict(raised[0][2]["macs"][0])
        assert failed["nav"][1] == "0.0" and failed["counters"] == []
        assert failed["_controllers"] == []
        counters = [dict(dict(mac)["counters"]) for mac in drained["macs"]]
        assert counters[1]["msdu_delivered"] == 1
        assert len(raised) == 3 or min(
            counters[1]["nav_updates"], counters[2]["nav_updates"]) >= 1
    return "mac", setup, outcome


class Duck:
    """Anything with an ``EventHandle``'s attributes: the run loop's last
    entry shape."""

    def __init__(self, callback, args=("duck",), cancelled=False):
        self._cancelled, self.callback, self.args = cancelled, callback, args


class SimWorld(World):
    """A bare simulator whose events note their firing, and what a row
    made, field by field."""

    def __init__(self, kernel):
        self.sim = Simulator(kernel=kernel)
        self.log, self.made = [], []

    def note(self, *args):
        self.log.append((repr(self.sim._now),) + args)

    def snapshot(self):
        return dict(super().snapshot(), made=[
            [repr(getattr(obj, name, "missing")) for name in (
                "_cancelled", "_fired", "_armed", "_version", "args")]
            for obj in self.made])


WORLDS["sim"] = SimWorld


def _queued(make, *missing, mend=None, outcome=None):
    """A run-loop row: what ``make(world)`` queues for 0.5 s between two
    plain events — an entry's tail, pushed as it is, or an object that
    queued itself — ``missing`` deleted off it; ``mend(world)``."""
    def setup(world):
        sim = world.sim
        sim.schedule_fast_at(0.25, world.note, "before")
        made = make(world)
        if isinstance(made, tuple):
            sim._push((0.5, sim._next_seq()) + made)
            made = made[0]
        for name in missing:
            delattr(made, name)
        world.made.append(made)
        sim.schedule_fast_at(0.75, world.note, "after")
        return lambda: mend and mend(world)
    return "sim", setup, outcome


def _timer(world):
    timer = Timer(world.sim, world.note)
    timer.schedule_at(0.5)
    return timer


def _handle_args(args):
    """A handle due at 0.5 s whose ``args`` is ``args``."""
    def make(world):
        handle = world.sim.schedule_at(0.5, world.note)
        handle.args = args
        return handle
    return make


def _tally(name, value, outcome, callback=None):
    """A run-loop exit row: one fast event at 0.5 s (``callback``, or a
    note) run with the tally ``name`` holding ``value``, or deleted for
    ``value=None``; mended back to 0."""
    def setup(world):
        sim = world.sim
        sim.schedule_fast_at(0.5, callback or world.note)
        if value is None:
            delattr(sim, name)
        else:
            setattr(sim, name, value)
        return lambda: setattr(sim, name, 0)
    return "sim", setup, outcome


def _added_to(before, raised, drained):
    assert drained["tallies"] == [1.5, 0, 0, 0, 0]


def _skipped_writes(context, held="deleted"):
    """The fast tally was added to; the writes after the timer tally
    (``held``) were skipped, the executed counter's included; the
    exception in flight, if any, is the context."""
    def outcome(before, raised, drained):
        _kind, _running, after, raised_context = raised[0]
        assert after["tallies"] == [1, held, 0, 0, 0]
        assert after["executed"] == 0 and raised_context == context
    return outcome


def _left_runnable(before, raised, drained):
    """Nothing moved; the queued event fired on the next run."""
    assert raised[0][2] == before
    assert ("0.5", "queued") in drained["log"]


def _counted_then_raised(before, raised, drained):
    after = raised[0][2]
    assert (after["now"], after["executed"]) == ("0.5", 2)
    assert after["tallies"][:3] == [1, 0, 1]


def _run_args(run_args, row, outcome):
    """``row``, its first ``run()`` called with ``run_args`` instead."""
    world, setup, _outcome = row
    def first(world):
        world.run_args = run_args
        return setup(world)
    return world, first, outcome


#: What raises under ``sim.run()``: name -> (the exceptions run() raises
#: in order, (world, setup(world) -> mend, the row's outcome (before,
#: raised, drained) -> None, or None)).
FAILURES = {
    # An upcall or a model raising in a compiled edge or tail.
    "on_cca_idle raises in arrival_ends": (
        ["Boom"], _radio([], [(1e-3, "begins", 5, 1e-6),
                              (2e-3, "ends", 5)], on_cca_idle=_boom)),
    "on_state_change raises while locking": (["Boom"], _radio(
        ["pool0"], [(1e-3, "begins", 0, 1e-9), (1.2e-3, "ends", 0)],
        on_state_change=_boom)),
    "a tracker that is not a SinrTracker": (["AttributeError"], _radio(
        ["pool2", "pool5"], [
            (1e-3, "begins", 2, 1e-9),
            (1.1e-3, "set", "_locked_tracker", object()),
            (1.2e-3, "begins", 5, 1e-10), (1.8e-3, "ends", 5),
            (1.9e-3, "ends", 2)])),
    "on_state_change raises at the tail": (["Boom"], _radio(
        [], [(1e-3, "begins", 0, LOCKED), (1.1e-3, "set",
             "on_state_change", _boom), (1.2e-3, "ends", 0)], tail=True)),
    "a handed-off PER raises at the tail": (["Boom"], _radio(
        [], [(1e-3, "begins", _deaf_frame, LOCKED),
             (1.2e-3, "ends", _deaf_frame)], tail=True)),
    # A carrier-sense slot: the NAV's expiry raising.
    "the NAV's expiry raises": (["Boom"], _dead_expiry()),
    # The demux: a raising rate factory, a frame whose verdict
    # cannot be derived.
    "the rate factory raises": (["Boom"], _overheard(
        lambda: make_rts(STRANGER, BYSTANDER, 900), _boom)),
    "a frame with no verdict": (["AttributeError"] * 3, _overheard(
        lambda: make_cts("nobody", 900), None)),
    # The run loop: entries, timers and handles of the wrong shape.
    "a fast entry too short for its args": (
        ["IndexError"], _queued(lambda world: (None, world.note))),
    "a timer entry with no version": (["IndexError"], _queued(
        lambda world: (Timer(world.sim, world.note),))),
    "a timer whose _version is missing": (
        ["AttributeError"], _queued(_timer, "_version")),
    "a timer whose _callback is missing": (
        ["AttributeError"], _queued(_timer, "_callback")),
    **{f"a handle whose {field} is missing": (["AttributeError"], _queued(
        lambda world: world.sim.schedule_at(0.5, world.note), field))
       for field in ("_cancelled", "args")},
    "a duck-typed handle is cancelled": ([], _queued(
        lambda world: (Duck(world.note, cancelled=True),))),
    "a duck-typed handle has list args": ([], _queued(
        lambda world: (Duck(world.note, ["duck", 1]),))),
    **{f"a duck-typed handle whose {field} is missing": (
        ["AttributeError"], _queued(
            lambda world: (Duck(world.note),), field))
       for field in ("_cancelled", "callback", "args")},
    # The run loop's own fields, and its re-entrancy guard.
    "a callback runs the loop again": (["SimulationError"], _queued(
        lambda world: world.sim.schedule_fast_at(0.5, world.sim.run))),
    "the running flag is missing": (["AttributeError"], _queued(
        lambda world: world.sim, "_running",
        mend=lambda world: setattr(world.sim, "_running", False))),
    "a callback deletes the clock": (["AttributeError"], _queued(
        lambda world: world.sim.schedule_fast_at(
            0.875, delattr, world.sim, "_now"),
        mend=lambda world: setattr(world.sim, "_now", 0.875))),
    # Its arguments, read before the flags are set: the queued event
    # fires on the next run.
    "the event budget is not a number": (["TypeError"], _run_args(
        {"max_events": "x"}, _queued(lambda world: world.sim.schedule_at(
            0.5, world.note, "queued")), _left_runnable)),
    "the executed counter is missing": (["AttributeError"], _queued(
        lambda world: world.sim, "_events_executed",
        mend=lambda world: setattr(world.sim, "_events_executed", 0))),
    # A handle's args, made a tuple at the call: the clock has moved
    # and the handle is counted when it raises.
    "a handle whose args is not iterable": (["TypeError"], _queued(
        _handle_args(5), outcome=_counted_then_raised)),
    # Its exit writes each tally with += and stores the executed
    # counter; the first write that fails raises, chained to the
    # callback's exception, and skips the writes after it.
    "a tally holds a float": ([], _tally("_fast_fired", 0.5, _added_to)),
    "a tally is missing": (["AttributeError"], _tally(
        "_timers_fired", None, _skipped_writes("NoneType"))),
    "a tally cannot be added to": (["TypeError"], _tally(
        "_timers_fired", "x", _skipped_writes("NoneType", "x"))),
    "a callback raises and a tally is missing": (["AttributeError"], _tally(
        "_timers_fired", None, _skipped_writes("Boom"), _boom)),
}


#: The ``run()`` signatures a failure is raised under: a horizon, an
#: event budget that never binds, both, neither.
BOUNDS = {"until": {"until": 1.0}, "max_events": {"max_events": 10**6},
          "both": {"until": 1.0, "max_events": 10**6}, "neither": {}}


def _failure(kernel, row, bounds):
    """``row`` under ``sim.run(**BOUNDS[bounds])`` (its first call with
    the row's own ``run_args``, if it sets them), run again after each
    raise (mended after the first): the state before, what each raise
    left, and the state once nothing raises."""
    _kinds, (world, setup, _outcome) = FAILURES[row]
    world = WORLDS[world](kernel)
    mend = setup(world)
    before = world.snapshot()
    raised = []
    run_args = getattr(world, "run_args", BOUNDS[bounds])
    for _ in range(4):
        try:
            world.sim.run(**run_args)
            break
        except Exception as exc:
            raised.append((type(exc).__name__,
                           getattr(world.sim, "_running", None),
                           world.snapshot(), type(exc.__context__).__name__))
            if len(raised) == 1:
                mend()
                run_args = BOUNDS[bounds]
    return before, raised, world.snapshot()


@pytest.mark.parametrize("bounds", list(BOUNDS))
@pytest.mark.parametrize("row", sorted(FAILURES))
def test_each_failure_fails_alike_and_the_run_goes_on(row, bounds):
    kinds, (_world, _setup, outcome) = FAILURES[row]
    compiled = _failure("c", row, bounds)
    assert compiled == _failure("python", row, bounds)
    before, raised, drained = compiled
    assert [kind for kind, _running, _after, _context in raised] == kinds
    assert not any(running for _kind, running, _after, _context in raised)
    if raised and "radios" in before:
        # The executed counter was flushed, and the run went on.
        assert drained["executed"] > raised[-1][2]["executed"]
    if outcome is not None:
        outcome(before, raised, drained)
