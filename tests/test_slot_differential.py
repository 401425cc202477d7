"""Every compiled twin against its Python reference, slot by slot.

``repro.core.binding``'s tables name every slot the extension serves:
``engine.SIMULATOR``, ``transceiver.RADIO``, ``dcf.MAC`` and
``nav.NAV``.  For each slot Hypothesis draws a state, the state is built
twice, the slot's twin is called on one copy and its reference on the
other, and everything either could touch is compared, repr-exact: every
slot of every object, the upcalls, the heap entry by entry, RNG states,
what was raised.  Where a named state has one right
outcome (arm the IFS wait or not, and when; win access; draw a counter)
the reference is held to it as well, so a change that moves both sides
alike fails too.

* A radio's or a MAC's state is a schedule prefix of the scenario-level
  parity suites (``tests/phy/test_edge_parity.py``,
  ``tests/mac/test_access_parity.py``, whose worlds and snapshots are
  reused) on the compiled kernel, then — for a MAC — a base and up to
  three named states: each reason not to arm, each boundary met
  exactly, each field of the wrong type.  Every named state, and every
  edge of the edge suite's corner schedules, is also played by name.
  A radio's transmit slots also meet a medium that is not the plain one
  (a ``MediumProbe``'s wrap, a ``ShardMedium``) and a ``TraceDigest``
  (``ARMED``), and each named send (``SENDS``: from IDLE, mid-lock, in
  TX or asleep, a foreign mode, traced, a plan hit and a miss, a stale
  end after ``power_off``) is held to its one right outcome as well.
* A simulator's one slot, ``_queue``, is compared part by part across
  kernels: a ``kernel="python"`` simulator binds the reference, a
  ``kernel="c"`` one the twin.
* Every class a twin reads by offset off a frame or a holder —
  ``Transmission``, ``PhyMode``, ``Modulation``, ``CaptureModel``,
  ``RadioConfig``, ``TraceLog``, ``Counter`` — has a row whose world
  holds a subclass instance instead (``ODD``, and the MAC's
  ``STATES``).  Each subclass logs every by-name read of those fields
  (``READS``), so a twin that read one by offset instead of handing the
  step to the reference leaves a different log, not just equal state.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

import dataclasses
import pathlib
import sys
from fractions import Fraction
from types import MethodType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator
from repro.core.binding import bind, tally
from repro.core.engine import SIMULATOR, Timer, ckernel_available
from repro.core.errors import SimulationError
from repro.core.stats import Counter
from repro.core.trace import TraceDigest, TraceLog
from repro.mac.addresses import MacAddress
from repro.mac.dcf import MAC, DcfMac
from repro.mac.frames import (FrameControl, FrameType, make_ack, make_cts,
                              make_ps_poll, make_rts)
from repro.mac.nav import NAV, Nav
from repro.parallel.shard import ShardMedium
from repro.phy.channel import Transmission
from repro.phy.interference import CaptureModel
from repro.phy.modulation import Modulation
from repro.phy.standards import PhyMode
from repro.phy.transceiver import RADIO, Radio, RadioConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.probes import MediumProbe

sys.path[:0] = [str(pathlib.Path(__file__).resolve().parent / part)
                for part in ("phy", "mac")]
import test_access_parity as mac_parity  # noqa: E402
import test_edge_parity as phy_parity  # noqa: E402
from test_access_parity import (BASIC, DIFS, EIFS, SLOT,  # noqa: E402
                                STRANGER, OddFrame, World, _boom)

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

BYSTANDER = MacAddress(STRANGER.value + 1)

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
    plain = World("c", 2, subclass_at=1)
    odd_radio = World("c", 2, radio_class=mac_parity.WatchedRadio)
    python = World("python", 2)
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
#: (``World`` options, world -> None).
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
    world = phy_parity.World("c", **options, **extra)
    if odd is not None:
        ODD[odd](world)
    if arm is not None:
        arm(world)
    for step, op in enumerate(schedule):
        phy_parity._apply(world, op, step)
    return world


def _radio_case(side, name, world_options, schedule, index, tx, power):
    del READS[:]
    world = _radio_world(world_options, schedule)
    radio = world.radios[index % len(world.radios)]
    result = _call(name, side, radio, world.sim,
                   _radio_args(world, radio, name, tx, power), world.log)
    return world.snapshot(), list(READS), _air(world), repr(result)


@pytest.mark.parametrize("name", list(RADIO.slots))
@settings(max_examples=150, deadline=None)
@given(world_options=st.fixed_dictionaries({
           "radios": st.integers(2, 4), "subclass_at": st.sampled_from(
               [None, 1]), "capture": st.sampled_from(["on", "off", "odd"]),
           "error_model": st.sampled_from(["ber", "fixed", "subclass"]),
           "traced": st.booleans(),
           "odd": st.sampled_from([None, None, *sorted(ODD)]),
           "armed": st.sampled_from([None, None, *sorted(ARMED)])}),
       schedule=st.lists(phy_parity.OPS, max_size=12),
       index=st.sampled_from([0, 0, 2]), tx=st.integers(0, 8),
       power=phy_parity.POWERS)
def test_every_radio_slot_is_its_reference(name, world_options, schedule,
                                           index, tx, power):
    case = (name, world_options, schedule, index, tx, power)
    assert _radio_case("twin", *case) == _radio_case("reference", *case)


@pytest.mark.parametrize("corner", sorted(phy_parity.CORNERS))
def test_each_edge_of_each_corner_schedule_is_the_reference_s(corner):
    """The edge parity suite's corner schedules, cut before each of
    their edges: that edge, and the reception tail, called alone."""
    schedule = phy_parity.CORNERS[corner]
    options = {"radios": 2, "capture": "on", "subclass_at": None}
    for step, op in enumerate(schedule):
        calls = [("_reception_complete", 0, None)]
        if op[0] in ("begins", "ends"):
            calls.append((f"arrival_{op[0]}", op[2], (op + (None,))[3]))
        for name, tx, power in calls:
            case = (name, options, schedule[:step], 1, tx, power)
            assert _radio_case("twin", *case) \
                == _radio_case("reference", *case), (step, name)


def _asleep_on_lock(world, rx):
    """Arm ``rx``'s ``on_state_change`` to put it to sleep, once, as
    it next locks a frame."""
    note = rx.on_state_change

    def state_change(value):
        note(value)
        if value == "rx":
            rx.on_state_change = note
            rx.sleep()
    rx.on_state_change = state_change


#: An ``on_state_change`` callback sends the radio to sleep inside
#: ``arrival_begins``, after ``_try_lock`` or after the capture's
#: ``_abort_locked`` and relock: schedule, frame, power.
ASLEEP = {
    "asleep on a lock": ([("poke", 1, _asleep_on_lock)], 0, phy_parity.LOCKED),
    "asleep on a capture relock": (
        [("begins", 1, 2, phy_parity.LOCKED), ("poke", 1, _asleep_on_lock)],
        1, 6e-9),
}


@pytest.mark.parametrize("corner", sorted(ASLEEP))
def test_a_radio_sent_to_sleep_inside_an_edge_senses_nothing(corner):
    """The edge's CCA verdict is ``Radio.cca_busy``'s on the twin and on
    the reference: a sleeping radio is not busy, whatever energy its
    table holds."""
    schedule, tx, power = ASLEEP[corner]
    options = {"radios": 2, "capture": "on", "subclass_at": None}
    case = ("arrival_begins", options, schedule, 1, tx, power)
    twin = _radio_case("twin", *case)
    assert twin == _radio_case("reference", *case)
    _name, state, cca_busy, table = twin[0]["radios"][1][:4]
    assert (state, cca_busy) == ("sleep", False)
    assert table, "nothing on the air: the row tests nothing"


@pytest.mark.parametrize("odd", sorted(ODD))
@pytest.mark.parametrize("corner", ["capture relocks",
                                    "a tail under lasting interference"])
def test_a_subclass_holder_hands_each_step_to_the_reference(corner, odd):
    """A corner schedule that locks, captures, refreshes and ends a
    reception, with one class the twins read by offset subclassed: each
    edge and tail, called alone, is the reference's, its reads too."""
    schedule = phy_parity.CORNERS[corner]
    options = {"radios": 2, "capture": "on", "subclass_at": None,
               "odd": odd}
    read = set()
    for step, op in enumerate(schedule):
        calls = [("_reception_complete", 0, None)]
        if op[0] in ("begins", "ends"):
            calls.append((f"arrival_{op[0]}", op[2], (op + (None,))[3]))
        for name, tx, power in calls:
            case = (name, options, schedule[:step], 1, tx, power)
            twin = _radio_case("twin", *case)
            assert twin == _radio_case("reference", *case), (step, name)
            read.update(twin[1])
    assert read, "the subclass was never read: the row tests nothing"


def _radio_row(side, name, armed, schedule, tx):
    """Radio ``r1`` of a two-radio world after ``schedule``: what it and
    the air were before the slot's call, and what they are after."""
    del READS[:]
    world = _radio_world({"radios": 2, "capture": "on", "subclass_at": None,
                          "armed": armed}, schedule)
    radio = world.radios[1]
    before = world.snapshot(), _air(world)
    result = _call(name, side, radio, world.sim,
                   _radio_args(world, radio, name, tx, None), world.log)
    return before, (world.snapshot(), list(READS), _air(world), repr(result))


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
        "transmit", None, [("begins", 1, 5, 2 * phy_parity.CCA)], 0,
        lambda before, after: _logged(before, after) == [("r1", "state")]),
    "during a locked reception": (
        "transmit", None, [("begins", 1, 0, phy_parity.LOCKED)], 1,
        lambda before, after: before[0]["radios"][1][4] == "pool0"
        and after[0]["radios"][1][1:5] == ("tx", True, [("pool0", repr(
            phy_parity.LOCKED))], None)),
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
    twin = _radio_row("twin", name, armed, schedule, tx)
    reference = _radio_row("reference", name, armed, schedule, tx)
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
    world = World("c", 3, **(world_options or {}))
    mac, frame = world.macs[0], FRAMES[frame](world)
    steps = [lambda world, mac, frame, op=op: mac_parity._apply(world, op)
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
    if (name, state) in EXPECTED:
        read, value = EXPECTED[name, state]
        assert read(reference) == value, read.__doc__


@pytest.mark.parametrize("table, name", MAC_SLOTS,
                         ids=[name for _, name in MAC_SLOTS])
@settings(max_examples=150, deadline=None)
@given(schedule=st.lists(mac_parity.OPS, max_size=8),
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
