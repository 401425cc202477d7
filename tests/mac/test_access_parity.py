"""The compiled carrier-sense slots and frame demux against their
Python reference.

On ``kernel="c"`` a plain :class:`DcfMac` on a plain
:class:`Radio` hands the radio, its NAV and its IFS timer the compiled
twins of ``_maybe_start_ifs``, ``_cancel_access_timers``,
``_ifs_expired``, ``phy_rx_end`` and ``Nav._fire``
(``repro.core._ckernel``, as ``dcf.MAC`` and ``nav.NAV`` bind them)
instead of the methods of those names; the
methods stay the reference, and what every Python caller inside the MAC
keeps calling.  The claim is that nothing observable differs.  Three
parts:

* ``hypothesis`` schedules over 2-5 stations — sends, broadcasts and
  multicasts, null frames and PS-Polls, energy bursts, sleep/wake,
  ``crash()``, and from the bare radio third-party reservations that
  nest, a foreign MAC's payload and a ``Dot11Frame`` subclass; run steps
  of 1 us to 2 ms, with and without loss, RTS/CTS and fragmentation, one
  station a ``DcfMac`` subclass, one on ``IdealSnr``, one on a
  controller that logs its SNR feed, one with a sniffer — played once
  per kernel and compared per step on every ``DcfMac`` / ``Nav`` /
  ``Timer`` slot (``repr``-exact; ``_controllers`` in insertion order
  with each controller's state), the raw heap layout, the kernel's
  counters, every station's RNG state and the cached verdict of every
  frame sent so far;
* the corners by name: the freeze replaying the elapsed slot
  boundaries, EIFS after a corrupt frame, every kind of frame a third
  party can overhear;
* the failure path: whatever raises under a compiled slot surfaces from
  ``sim.run()`` as the reference's exception with the reference's state.

Each slot called alone — from every reason not to arm, every boundary
met exactly and every field of the wrong type — is
``tests/test_slot_differential.py``'s, which reuses this file's world.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

from types import MethodType, ModuleType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.engine import EventHandle, Timer, ckernel_available
from repro.core.errors import SimulationError
from repro.core.stats import Counter
from repro.mac.addresses import (BROADCAST, MacAddress, allocate_address,
                                 reset_allocator)
from repro.mac.backoff import BackoffWindow
from repro.mac.dcf import DcfConfig, DcfMac, MacListener, _TxContext
from repro.mac.frames import (Dot11Frame, FrameControl, FrameType, make_ack,
                              make_cts, make_ps_poll)
from repro.mac.nav import Nav
from repro.mac.queueing import DropTailQueue
from repro.mac.rate_adapt import (FixedRate, IdealSnr, RateController,
                                  fixed_rate_factory)
from repro.phy.channel import Medium, Transmission
from repro.phy.error_models import FixedPerErrorModel
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

SLOT = DOT11B.slot_time
DIFS = DOT11B.difs
EIFS = DOT11B.eifs
BASIC = DOT11B.modes[0]
MULTICAST = MacAddress(0x01005E000001)
#: An address no station of a World holds: third-party traffic.
STRANGER = MacAddress(0x020000000063)


class Boom(Exception):
    pass


def _boom(*_args):
    raise Boom("slot failed")


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


class World:
    """2-5 saturable stations in mutual range, plus a bare radio that
    only ever emits energy."""

    def __init__(self, kernel, stations, subclass_at=None, per=None,
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

    # --- what the two kernels must agree on, repr-exact -------------------

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
            return ("Timer", value._armed, value._version, repr(value._time),
                    self.callback(value._callback))
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
            return f"air{value.id - self.first_id}"
        if isinstance(value, Dot11Frame):    # and its verdict, once judged
            return (repr(value), tuple(map(self.describe, vars(value).get(
                "rx_verdict", ("not judged",)))))
        if callable(value) and hasattr(value, "__name__"):
            return self.callback(value)
        return type(value).__name__

    def snapshot(self):
        sim = self.sim
        heap = []
        # Every entry, in pop order: (time, seq) is a total order, so pop
        # order and depth are the queue contract — array layout is not
        # (kernel="c" keeps structs in its own heap, not this list's).
        for entry in sorted(sim._heap, key=lambda entry: entry[:2]):
            time, seq, event = entry[:3]
            if event is None:
                heap.append((repr(time), seq, self.callback(entry[3]),
                             tuple(self.describe(arg) for arg in entry[4])))
            elif isinstance(event, EventHandle):
                heap.append((repr(time), seq, "EventHandle",
                             self.callback(event.callback)))
            else:
                heap.append((repr(time), seq, type(event).__name__,
                             self.callback(event._callback), entry[3]))
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
        return {"now": repr(sim._now), "scheduled": sim._scheduled,
                "cancelled": sim._cancelled_events,
                "executed": sim._events_executed, "heap": heap,
                "macs": macs, "radios": radios, "log": list(self.log),
                "sent": [self.describe(payload)
                         for payload in self.medium.payloads]}


# --- the randomized schedule -------------------------------------------------

STATION = st.integers(min_value=0, max_value=4)
OPS = st.one_of(
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


def _apply(world, op):
    macs, sim = world.macs, world.sim
    count = len(macs)
    if op[0] == "send":
        source = op[1] % count
        target = (source + 1 + op[2] % (count - 1)) % count
        macs[source].send(macs[target].address, bytes(op[3]))
    elif op[0] in ("broadcast", "multicast"):
        macs[op[1] % count].send(
            BROADCAST if op[0] == "broadcast" else MULTICAST, bytes(60))
    elif op[0] == "ps_poll":
        macs[op[1] % count].send_ps_poll(aid=1 + op[1])
    elif op[0] == "null":
        source = op[1] % count
        macs[source].send_null(
            macs[(source + 1 + op[2] % (count - 1)) % count].address,
            power_management=bool(op[2] % 2))
    elif op[0] == "energy":
        world.jammer.transmit_energy(op[1], op[2])
    elif op[0] == "foreign":
        world.jammer.transmit(("another", "MAC"), 400, BASIC)
    elif op[0] in ("odd", "cts"):
        frame = make_cts(STRANGER, op[1]) if op[0] == "cts" else OddFrame(
            fc=FrameControl(type=FrameType.DATA), duration_us=op[2],
            addr1=macs[op[1] % count].address, addr2=STRANGER,
            addr3=STRANGER, body=bytes(30))
        world.jammer.transmit(frame, frame.wire_size_bits(), BASIC)
    elif op[0] == "run":
        sim.run(until=sim.now + op[1])
    elif op[0] == "crash":
        macs[op[1] % count].crash()
    else:
        getattr(macs[op[1] % count].radio, op[0])()


def _play(kernel, stations, schedule, **world_options):
    world = World(kernel, stations, **world_options)
    frames = []
    for op in schedule + [("run", 5e-3)]:    # drain what is in flight
        # Sleeping mid-TX, a second burst, and — from inside run() — an
        # access won by a station whose radio was put to sleep.
        try:
            _apply(world, op)
        except SimulationError as exc:
            world.log.append(("raised", str(exc)))
        frames.append(world.snapshot())
    return world, frames


def _assert_same(reference, compiled, schedule):
    for step, (expected, got) in enumerate(zip(reference, compiled)):
        assert got == expected, f"diverged after step {step}: " \
            f"{schedule[min(step, len(schedule) - 1)]}"


#: Where the special stations sit: all plain, or one of each kind.
ROLES = st.sampled_from([
    dict(), dict(subclass_at=0), dict(subclass_at=1, ideal_at=0),
    dict(ideal_at=1, listening_at=0), dict(sniffer_at=0, ideal_at=2),
    dict(subclass_at=3, ideal_at=2, listening_at=1, sniffer_at=0)])


@settings(max_examples=120, deadline=None)
@given(stations=st.integers(2, 5), roles=ROLES,
       per=st.sampled_from([None, None, 0.3]),
       rts=st.booleans(),
       schedule=st.lists(OPS, min_size=1, max_size=40))
def test_schedules_leave_identical_state_on_both_kernels(
        stations, roles, per, rts, schedule):
    options = dict(roles, per=per, rts=rts)
    _, reference = _play("python", stations, schedule, **options)
    _, compiled = _play("c", stations, schedule, **options)
    _assert_same(reference, compiled, schedule)


def test_a_saturated_cell_runs_alike_and_does_contend():
    """The random walk's steps are short; this one runs long enough for
    freezes, retries and drops to pile up."""
    schedule = [("send", source, target, size)
                for source in range(5) for target in range(3)
                for size in (700, 40, 300)] + [("run", 2e-3)] * 25
    options = dict(per=0.3, rts=True)
    _, reference = _play("python", 5, schedule, **options)
    world, compiled = _play("c", 5, schedule, **options)
    _assert_same(reference, compiled, schedule)
    totals = Counter()
    for mac in world.macs:
        totals.merge(mac.counters)
    for name in ("tx_data", "tx_rts", "rx_cts", "rx_ack", "rx_corrupt",
                 "ack_timeouts", "nav_updates", "fragments_sent",
                 "msdu_delivered"):
        assert totals.get(name) > 0, name
    assert compiled[-1]["cancelled"] > 100        # freezes and re-anchors


def test_a_field_of_emitters_keeps_every_table_deep_and_runs_alike():
    """Eight duty-cycled emitters, each near the noise floor and all of
    them together under the CCA threshold: every table is six to nine
    deep for the whole run, so the IFS arm, the locks taken under them,
    the refreshes at their edges and the CCA verdicts all take sums that
    no single-arrival shortcut answers — and stations still deliver."""
    def play(kernel):
        world = World(kernel, 3, per=0.3)
        sim, frames, depths = world.sim, [], []
        for index in range(8):
            emitter = Radio(f"e{index}", world.medium, DOT11B,
                            Position(0.4 * index, 2.0, 0.0))
            # Received at about 1e-13 W apiece (FixedLoss: 50 dB).
            burst = MethodType(Radio.transmit_energy, emitter)
            args = ((9.0 + 0.13 * index) * 1e-4, (1.1 + 0.37 * index) * 1e-8)
            emitter.on_tx_end = lambda burst=burst, args=args, index=index: \
                sim.schedule_fast(1e-5 * (1 + index), burst, *args)
            sim.schedule_fast(1.3e-5 * index, burst, *args)
        sim.run(until=2e-4)                       # the field is up
        for source in range(3):
            for size in (700, 40, 300):
                world.macs[source].send(
                    world.macs[(source + 1) % 3].address, bytes(size))
        for _ in range(60):
            sim.run(until=sim.now + 2.5e-4)
            frames.append(world.snapshot())
            depths.extend(
                (len(mac.radio._arrivals), mac.radio._locked is not None,
                 mac._ifs._armed or mac._countdown._armed)
                for mac in world.macs)
        return world, frames, depths

    _, reference, _ = play("python")
    world, compiled, depths = play("c")
    assert compiled == reference
    assert min(depth for depth, _locked, _contending in depths) >= 6
    assert any(locked and depth >= 7 for depth, locked, _c in depths)
    assert any(contending for _depth, _locked, contending in depths)
    totals = Counter()
    for mac in world.macs:
        totals.merge(mac.counters)
    for name in ("msdu_delivered", "fragments_sent", "rx_corrupt",
                 "ack_timeouts", "nav_updates"):
        assert totals.get(name) > 0, name


# --- the corners, by name ----------------------------------------------------

def _contending(kernel, remaining=7, **world_options):
    """A world whose station 0 counts down ``remaining`` slots from the
    end of its DIFS wait; returns it with the countdown's anchor."""
    world = World(kernel, 2, **world_options)
    mac, sim = world.macs[0], world.sim
    mac.send(world.macs[1].address, bytes(40))
    mac._backoff_remaining = remaining       # as if the medium had been busy
    sim.run(until=DIFS)
    assert mac._countdown._armed and not mac._ifs._armed
    assert mac._countdown_anchor == DIFS
    return world, mac


def _both(play):
    reference, compiled = play("python"), play("c")
    assert compiled == reference
    return compiled


@pytest.mark.parametrize("elapsed, left", [
    (0.0, 7), (0.5, 7), (2.5, 5), (6.5, 1), (7.0, 0)])
def test_the_freeze_replays_the_elapsed_boundaries(elapsed, left):
    def play(kernel):
        world, mac = _contending(kernel)
        if elapsed < 7.0:
            world.sim.run(until=mac._countdown_anchor + elapsed * SLOT)
        else:
            # The countdown's own event is due now; freeze just before
            # the loop pops it.
            world.sim._now = mac._countdown._time
        mac.radio.on_cca_busy()
        return world.snapshot()
    assert dict(_both(play)["macs"][0])["_backoff_remaining"] == left


def test_eifs_follows_a_corrupt_frame_once_the_air_clears():
    # Station 0's frame reaches station 1 corrupt (PER 1) while a burst
    # keeps the medium busy past the frame's end, so the wait is armed
    # by the burst's idle edge — with _use_eifs already set.
    schedule = [("send", 0, 0, 40), ("run", 1e-4), ("send", 1, 0, 40),
                ("energy", 4e-4, 1e-6), ("run", 4e-4 - 1e-6), ("run", 2e-6)]
    _, reference = _play("python", 2, schedule, per=1.0)
    world, compiled = _play("c", 2, schedule, per=1.0)
    _assert_same(reference, compiled, schedule)
    waiting = dict(compiled[5]["macs"][1])
    assert waiting["counters"] == [("rx_corrupt", 1)]
    assert waiting["_use_eifs"] is True
    armed, at = waiting["_ifs"][1], float(waiting["_ifs"][3])
    assert armed and at == pytest.approx(1e-4 + 4e-4 + EIFS, abs=1e-6)


# --- what a third party overhears, by name ------------------------------------

def _third_party(kernel, frames, poke=None, **world_options):
    """The bare radio sends what ``frames()`` builds (afresh: a verdict
    is cached on the frame) 1 ms apart to three stations that are none
    of them the addressee; one snapshot per frame."""
    world = World(kernel, 3, **world_options)
    snapshots = []
    for index, frame in enumerate(frames()):
        if poke is not None:
            poke(world, index)
        bits = frame.wire_size_bits() if isinstance(frame, Dot11Frame) else 400
        world.jammer.transmit(frame, bits, BASIC)
        world.sim.run(until=world.sim.now + 1e-3)
        snapshots.append(world.snapshot())
    return snapshots


def _rx_end_times(frames):
    """When station 0 decodes each of ``frames`` (a dry run with a
    sniffer: timing does not depend on who listens)."""
    world = World("python", 3, sniffer_at=0)
    for frame in frames():
        world.jammer.transmit(frame, frame.wire_size_bits(), BASIC)
        world.sim.run(until=world.sim.now + 1e-3)
    return [float(entry[4]) for entry in world.log if entry[1] == "sniffed"]


def _station(snapshot, index=0):
    """(counters, NAV deadline, NAV timer armed, its version,
    ``_controllers``) of one station in a snapshot."""
    fields = dict(snapshot["macs"][index])
    _, until, _, (_, armed, version, _, _) = fields["nav"]
    return dict(fields["counters"]), float(until), armed, version, \
        fields["_controllers"]


def test_a_reservation_is_taken_and_counted():
    frames = lambda: [make_cts(STRANGER, 900)]
    (end,) = _rx_end_times(frames)
    (after,) = _both(lambda kernel: _third_party(kernel, frames))
    counters, until, _armed, version, controllers = _station(after)
    assert counters == {"nav_updates": 1}
    assert until == end + 900 * 1e-6 and version == 1
    assert controllers == []                 # a CTS names no transmitter


def test_a_shorter_reservation_inside_a_longer_one_counts_and_changes_nothing():
    frames = lambda: [make_cts(STRANGER, 4000), make_cts(STRANGER, 120)]
    first, _ = _rx_end_times(frames)
    long, short = _both(lambda kernel: _third_party(kernel, frames))
    assert _station(long)[:4] == ({"nav_updates": 1}, first + 4000 * 1e-6,
                                  True, 1)
    # Counted, the NAV where it was, the timer not armed a second time.
    assert _station(short)[:4] == ({"nav_updates": 2}, first + 4000 * 1e-6,
                                   True, 1)


def test_a_reservation_ending_where_the_nav_ends_does_not_extend_it():
    """``time <= _until``: equal is not an extension (no second arm)."""
    frames = lambda: [make_cts(STRANGER, 120)]
    (end,) = _rx_end_times(frames)

    def poke(world, index):
        for mac in world.macs:
            mac.nav.set_until(end + 120 * 1e-6)

    (after,) = _both(lambda kernel: _third_party(kernel, frames, poke))
    assert _station(after)[:4] == ({"nav_updates": 1}, end + 120 * 1e-6,
                                   False, 1)     # fired since, never re-armed


def test_a_nav_ending_exactly_as_a_frame_is_overheard():
    """``now >= _until`` holds at the boundary: the station, contending,
    is waiting out DIFS from this very instant."""
    frames = lambda: [make_ack(STRANGER)]
    (end,) = _rx_end_times(frames)

    def poke(world, index):
        mac = world.macs[0]
        mac.nav._until = end
        mac.send(world.macs[1].address, bytes(40))
        assert not mac._ifs._armed

    def play(kernel):
        world = World(kernel, 3)
        poke(world, 0)
        (ack,) = frames()
        world.jammer.transmit(ack, ack.wire_size_bits(), BASIC)
        world.sim.run(until=end)
        assert world.sim.now == end
        return world.snapshot()
    ifs = dict(_both(play)["macs"][0])["_ifs"]
    assert ifs[1] is True and ifs[3] == repr(end + DIFS)


#: Frames that leave a third party's NAV alone, and what else they do.
QUIET = {
    "an ACK": (lambda: make_ack(STRANGER), 0),
    "a CTS that reserves nothing": (lambda: make_cts(STRANGER, 0), 0),
    # The duration field of a PS-Poll is an AID, however large.
    "a PS-Poll": (lambda: make_ps_poll(
        STRANGER, MacAddress(STRANGER.value + 1), aid=0x3FFF), 1),
    "another MAC's payload": (lambda: ("another", "MAC"), 0),
}


@pytest.mark.parametrize("kind", sorted(QUIET))
def test_frames_that_reserve_nothing(kind):
    frame, controllers = QUIET[kind]
    (after,) = _both(lambda kernel: _third_party(kernel, lambda: [frame()]))
    for index in range(3):
        got = _station(after, index)
        assert got[:4] == ({}, 0.0, False, 0)
        assert len(got[4]) == controllers    # its transmitter, if it names one


def test_a_frame_subclass_is_overheard_by_the_method():
    odd = lambda: [OddFrame(
        fc=FrameControl(type=FrameType.DATA), duration_us=900, addr1=STRANGER,
        addr2=STRANGER, addr3=STRANGER, body=bytes(30))]
    (after,) = _both(lambda kernel: _third_party(kernel, odd))
    counters, until, _armed, _version, controllers = _station(after)
    assert counters == {"nav_updates": 1} and until > 0.0
    assert [key for key, _ in controllers] == [STRANGER.value]
    assert after["sent"][0][1][0] == STRANGER.value      # judged, in Python


def test_a_corrupt_frame_owes_eifs_and_is_counted():
    frames = lambda: [make_cts(STRANGER, 900)]
    (after,) = _both(lambda kernel: _third_party(kernel, frames, per=1.0))
    assert _station(after)[:2] == ({"rx_corrupt": 1}, 0.0)
    assert dict(after["macs"][0])["_use_eifs"] is True
    assert after["sent"][0][1] == ("not judged",)


@pytest.mark.parametrize("ideal_at, peer, fed_by", [
    (2, 1, "the data frame it overheard"), (1, 0, "the ACK addressed to it"),
    (0, 1, "the data frame addressed to it")])
def test_an_ideal_snr_controller_hears_every_kind_of_frame(ideal_at, peer,
                                                           fed_by):
    def play(kernel):
        world = World(kernel, 3, ideal_at=ideal_at)
        world.macs[1].send(world.macs[0].address, bytes(40))
        world.sim.run(until=2e-3)
        return world.snapshot(), [mac.address.value for mac in world.macs]
    after, addresses = _both(play)
    fed = dict(dict(after["macs"][ideal_at])["_controllers"])
    name, snr_db = fed[addresses[peer]]
    assert name == "IdealSnr" and float(snr_db) > 20.0, fed_by
    assert dict(dict(after["macs"][1])["counters"])["msdu_delivered"] == 1


def test_a_listening_controller_and_a_sniffer_miss_nothing():
    def play(kernel):
        world = World(kernel, 3, listening_at=2, sniffer_at=2)
        world.macs[1].send(world.macs[0].address, bytes(40))
        world.sim.run(until=2e-3)
        return world.snapshot()
    log = _both(play)["log"]
    # Station 2 decodes the data frame and its ACK; only the first names
    # a transmitter to keep a controller for.
    assert [entry[1] for entry in log if entry[0] == "mac2"] == [
        "sniffed", "snr", "sniffed"]

    def play(kernel):                        # ... and without the sniffer,
        world = World(kernel, 3, listening_at=2)     # from the compiled demux
        world.macs[1].send(world.macs[0].address, bytes(40))
        world.sim.run(until=2e-3)
        return world.snapshot()
    assert [entry[1] for entry in _both(play)["log"]
            if entry[0] == "mac2"] == ["snr"]


# --- the failure path --------------------------------------------------------

class _DeadRng:
    def randint(self, low, high):
        raise Boom("no draw")

    def getstate(self):
        return ()


def _raising_draw(world, monkeypatch):
    mac = world.macs[0]
    mac.backoff._rng = _DeadRng()
    mac._backoff_remaining = None
    return lambda: setattr(mac.backoff, "_rng", world.sim.rng.stream("mend"))


def _raising_access_won(world, monkeypatch):
    monkeypatch.setattr(DcfMac, "_access_won", _boom)
    return monkeypatch.undo


def _raising_on_expire(world, monkeypatch):
    mac = world.macs[0]
    mac._ifs.cancel()
    mac.nav.set_until(2e-5)
    original = mac.nav._on_expire
    mac.nav._on_expire = _boom
    return lambda: setattr(mac.nav, "_on_expire", original)


def _failure(kernel, arrange, monkeypatch):
    world = World(kernel, 2)
    mac, sim = world.macs[0], world.sim
    mac.send(world.macs[1].address, bytes(40))
    mend = arrange(world, monkeypatch)
    with pytest.raises(Boom) as caught:
        sim.run(until=1.0)
    after_raise = world.snapshot()
    running = sim._running
    mend()
    # Whatever the raise cut short, the station is contending again
    # after one idle edge, and the rest of the run is the reference's.
    mac._backoff_remaining = 3
    mac.radio.on_cca_idle()
    sim.run(until=1.0)
    return (str(caught.value), running, after_raise, world.snapshot())


@pytest.mark.parametrize("arrange", [
    _raising_draw, _raising_access_won, _raising_on_expire],
    ids=lambda arrange: arrange.__name__.strip("_"))
def test_a_failing_slot_fails_alike_and_the_run_continues(arrange,
                                                          monkeypatch):
    reference = _failure("python", arrange, monkeypatch)
    compiled = _failure("c", arrange, monkeypatch)
    assert compiled == reference
    _message, running, after_raise, drained = compiled
    assert running is False                       # _running was reset
    assert after_raise["executed"] >= 1           # the counter was flushed
    failed = dict(after_raise["macs"][0])
    if arrange is not _raising_on_expire:
        # _ifs_expired had cleared the flag, and written nothing else.
        assert failed["_use_eifs"] is False
        assert failed["_countdown"][1] is False
    assert drained["executed"] > after_raise["executed"]
    assert dict(drained["macs"][0])["counters"][:1] == [
        ("msdu_delivered", 1)]
