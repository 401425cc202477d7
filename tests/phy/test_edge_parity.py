"""The compiled receive edges and reception tail against their Python
reference.

On ``kernel="c"`` the medium delivers arrivals to
``_ckernel.arrival_begins`` / ``arrival_ends`` instead of the
:class:`Radio` methods of those names, a plain radio's reception-end
timer fires ``_ckernel._reception_complete`` instead of
``Radio._reception_complete``, a frame sent as a MAC sends it (through
``radio._transmit``) and its end entry run ``_ckernel.transmit`` /
``_tx_complete``, and timers and fan-outs are built by the extension's
``arm`` / ``fan_out``.  The claim is that nothing
observable differs — not an upcall, a float, a heap entry or a random
draw.  Two halves:

* a ``hypothesis`` schedule of direct edge deliveries, real
  transmissions, sleep/wake, power loss and retunes over 2-6 radios —
  receive powers drawn a few ulp around the three decisions that
  matter (preamble floor, CCA threshold, capture margin), foreign and
  energy-only modes, capture on/off, a capture object that is not a
  ``CaptureModel``, a ``Radio`` subclass, four error models (only an
  exact ``BerErrorModel`` is answered in C; its arithmetic is held to
  the reference input by input in ``tests/phy/test_per_twin.py``),
  tracing on and off — run
  once per kernel and compared upcall by upcall, slot by slot, heap
  entry by heap entry, RNG state by RNG state;
* the failure path: an upcall or an error model that raises inside a
  compiled edge or tail under the compiled loop, and fields of the
  wrong type, leave the same exception and the same state the Python
  method leaves, and the simulator runs on afterwards.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import SimulationError
from repro.core.trace import TraceLog
from repro.core.units import dbm_to_watts
from repro.phy.channel import ENERGY_ONLY, Medium, Transmission
from repro.phy.error_models import (BerErrorModel, FixedPerErrorModel,
                                    SnrThresholdErrorModel)
from repro.phy.interference import CaptureModel
from repro.phy.modulation import Modulation
from repro.phy.propagation import FreeSpace
from repro.phy.standards import DOT11B, DOT11G
from repro.phy.transceiver import Radio, RadioConfig

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

NOISE = DOT11B.noise_floor_watts            # preamble floor at 0 dB SNR
CCA = dbm_to_watts(RadioConfig().cca_threshold_dbm)
LOCKED = 3e-10                              # a comfortably decodable signal


def _ulps(value, steps):
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, toward)
    return value


class Boom(Exception):
    pass


def _boom(*_args):
    raise Boom("upcall failed")


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
    """2-6 radios on one medium with every upcall logged."""

    def __init__(self, kernel, radios, capture, subclass_at,
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
        if transmission is None:
            return None
        if transmission in self.pool:
            return f"pool{self.pool.index(transmission)}"
        return f"air{transmission.id - self.first_id}"

    def _callback(self, callback):
        owner = getattr(callback, "__self__", None)
        return (getattr(owner, "name", type(owner).__name__),
                callback.__name__)

    def snapshot(self):
        """Everything the two kernels must agree on, repr-exact."""
        sim = self.sim
        heap = []
        # Every entry, in pop order: (time, seq) is a total order, so pop
        # order and depth are the queue contract — array layout is not
        # (kernel="c" keeps structs in its own heap, not this list's).
        for entry in sorted(sim._heap, key=lambda entry: entry[:2]):
            time, seq, event = entry[:3]
            if event is None:
                args = tuple(self.label(arg) if isinstance(arg, Transmission)
                             else repr(arg) for arg in entry[4])
                heap.append((repr(time), seq, self._callback(entry[3]), args))
            else:
                heap.append((repr(time), seq, type(event).__name__,
                             self._callback(event._callback), entry[3]))
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
        return {"now": repr(sim._now), "scheduled": sim._scheduled,
                "cancelled": sim._cancelled_events,
                "executed": sim._events_executed, "heap": heap,
                "radios": radios, "log": list(self.log),
                "trace": [(repr(record.time), record.source, record.event,
                           sorted(record.detail.items()))
                          for record in sim.trace]
                if isinstance(sim.trace, TraceLog) else sim.trace.hexdigest()}


# --- the randomized schedule -------------------------------------------------

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

RADIO = st.integers(min_value=0, max_value=5)
OPS = st.one_of(
    st.tuples(st.just("begins"), RADIO, st.integers(0, 8), POWERS),
    st.tuples(st.just("begins"), RADIO, st.integers(0, 8), POWERS),
    st.tuples(st.just("ends"), RADIO, st.integers(0, 8)),
    st.tuples(st.just("transmit"), RADIO, st.integers(0, 3)),
    st.tuples(st.just("energy"), RADIO),
    st.tuples(st.just("run"), st.sampled_from([1e-7, 5e-5, 2.5e-4, 2e-3])),
    st.tuples(st.sampled_from(["sleep", "wake", "power_off"]), RADIO),
    st.tuples(st.just("retune"), RADIO, st.sampled_from([1, 6])))


def _apply(world, op, step):
    """Play one schedule op (the ``step``-th) on ``world``."""
    sim = world.sim
    radio = world.radios[op[1] % len(world.radios)] if op[0] != "run" \
        else None
    try:
        if op[0] == "poke":
            op[2](world, radio)
        elif op[0] == "begins":
            world.edges(radio)[0](world.pool[op[2]], op[3])
        elif op[0] == "ends":
            world.edges(radio)[1](world.pool[op[2]])
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
        world.log.append(("raised", type(exc).__name__))


def _play(kernel, radios, capture, subclass_at, schedule, **world_options):
    world = World(kernel, radios, capture, subclass_at, **world_options)
    sim = world.sim
    frames = []
    for step, op in enumerate(schedule):
        _apply(world, op, step)
        frames.append(world.snapshot())
    sim.run(until=sim.now + 5e-3)       # drain what is in flight
    frames.append(world.snapshot())
    return world, frames


@settings(max_examples=150, deadline=None)
@given(radios=st.integers(2, 6),
       capture=st.sampled_from(["on", "off", "odd"]),
       subclass_at=st.sampled_from([None, 0, 1]),
       error_model=st.sampled_from(["ber", "ber", "fixed", "threshold",
                                    "subclass"]),
       traced=st.booleans(),
       schedule=st.lists(OPS, min_size=1, max_size=40))
def test_schedules_leave_identical_state_on_both_kernels(
        radios, capture, subclass_at, error_model, traced, schedule):
    _, reference = _play("python", radios, capture, subclass_at, schedule,
                         error_model=error_model, traced=traced)
    _, compiled = _play("c", radios, capture, subclass_at, schedule,
                        error_model=error_model, traced=traced)
    for step, (expected, got) in enumerate(zip(reference, compiled)):
        assert got == expected, f"diverged after step {step}: " \
            f"{schedule[min(step, len(schedule) - 1)]}"


def _probe(kernel, lock_first, probe_index, power):
    """Deliver one probe arrival to a fresh receiver (after locking a
    long frame when ``lock_first``); return what was decided."""
    world = World(kernel, 2, "on", None)
    rx = world.radios[1]
    begins, _ends = world.edges(rx)
    if lock_first:
        begins(world.pool[2], LOCKED)
    begins(world.pool[probe_index], power)
    return (world.label(rx._locked), rx._cca_busy,
            repr(rx._tracker._current_interference))


@pytest.mark.parametrize("lock_first, probe_index, decided", [
    (False, 5, "cca"),       # bare energy on an idle radio: CCA threshold
    (False, 0, "preamble"),  # a decodable frame alone: preamble floor
    (True, 0, "capture"),    # a decodable frame against a lock: capture
])
def test_thresholds_are_decided_alike_to_the_ulp(lock_first, probe_index,
                                                 decided):
    """Every sampled boundary power is decided the same way by both
    kernels, and the sample does straddle the boundary — exact equality
    included, where ``>=`` and ``>`` part ways."""
    reference = [_probe("python", lock_first, probe_index, power)
                 for power in THRESHOLD_POWERS]
    compiled = [_probe("c", lock_first, probe_index, power)
                for power in THRESHOLD_POWERS]
    assert compiled == reference
    if decided == "cca":
        verdicts = {busy for _locked, busy, _interference in compiled}
    else:
        verdicts = {locked == "pool0" for locked, _busy, _i in compiled}
    assert verdicts == {True, False}
    on_the_line = {"cca": CCA, "preamble": NOISE,
                   "capture": LOCKED * 10.0}[decided]
    assert on_the_line in THRESHOLD_POWERS


#: Hand-written schedules for corners a random walk seldom reaches.
CORNERS = {
    # The locked frame's energy has left the table when a weaker burst
    # arrives: sum - locked_power is negative and clamps to 0.0.
    "negative interference clamps": [
        ("begins", 1, 0, 3e-10), ("ends", 1, 0), ("begins", 1, 5, 1e-10),
        ("run", 2e-3)],
    # Two half-threshold bursts sum to the CCA threshold exactly.
    "a sum on the CCA line": [
        ("begins", 1, 5, CCA / 2.0), ("begins", 1, 6, CCA / 2.0),
        ("ends", 1, 5), ("ends", 1, 6)],
    # Capture: the abort runs in Python, the relock in C, mid-frame.
    "capture relocks": [
        ("begins", 1, 2, 3e-10), ("run", 1e-4), ("begins", 1, 1, 6e-9),
        ("run", 1e-4), ("begins", 1, 5, 2e-10), ("ends", 1, 2),
        ("run", 2e-3)],
    # A table whose builtins.sum is not a float: the lock, the
    # interference refresh and the CCA verdict each defer to Python.
    "a table that does not sum to a float": [
        ("begins", 1, 5, OddWatts(1e-10)), ("begins", 1, 0, 3e-10),
        ("begins", 1, 6, OddWatts(2e-10)), ("ends", 1, 5), ("run", 1e-3),
        ("begins", 1, 4, 1e-6), ("ends", 1, 4), ("ends", 1, 6)],
    # A field of emitters under every threshold: the table is six deep
    # before a frame locks under it, seven deep through its reception,
    # and still six deep at its tail — the lock, the refreshes, the CCA
    # verdicts all take sums no shortcut answers.
    "a lock under six emitters": [
        ("begins", 1, 4, NOISE * 0.31), ("begins", 1, 5, NOISE * 0.17),
        ("begins", 1, 6, NOISE * 0.23), ("begins", 1, 3, NOISE * 0.11),
        ("begins", 1, 7, NOISE * 0.13), ("begins", 1, 8, NOISE * 0.19),
        ("begins", 1, 0, LOCKED), ("run", 5e-5), ("ends", 1, 5),
        ("begins", 1, 5, NOISE * 0.7), ("run", 5e-5), ("ends", 1, 4),
        ("begins", 1, 4, CCA), ("run", 9e-5), ("ends", 1, 0), ("run", 1e-3),
        ("ends", 1, 4), ("ends", 1, 6), ("ends", 1, 3), ("ends", 1, 7),
        ("ends", 1, 8), ("ends", 1, 5)],
    # Arrivals at a sleeping radio are tracked; waking resumes CCA.
    "asleep, then awake under energy": [
        ("sleep", 1), ("begins", 1, 5, 1e-6), ("wake", 1), ("ends", 1, 5)],
    # The tail under interference that outlasts the frame: the SINR
    # integrates a partial overlap and the radio stays CCA-busy.
    "a tail under lasting interference": [
        ("begins", 1, 0, LOCKED), ("run", 1e-4), ("begins", 1, 5, 2e-10),
        ("ends", 1, 0), ("run", 2e-4), ("ends", 1, 5)],
    # Frames of no bits and of negative size survive whatever the SINR.
    "frames of no and of negative size": [
        ("begins", 1, 7, 5e-13), ("run", 1e-3), ("begins", 1, 8, 5e-13),
        ("run", 1e-3)],
    # No noise and no interference: the SINR is +inf; no signal: -inf.
    "an infinite and a vanished SINR": [
        ("poke", 1, lambda world, rx: setattr(rx, "noise_watts", 0.0)),
        ("begins", 1, 0, LOCKED), ("run", 1e-3), ("begins", 1, 1, LOCKED),
        ("poke", 1, lambda world, rx: setattr(rx._tracker, "signal_watts",
                                              0.0)),
        ("run", 1e-3)],
    # A lock taken by the reference edge (an int power) leaves an int in
    # the tracker: the compiled tail asks the tracker's own sinr_db.
    "a tracker holding an int": [
        ("begins", 1, 0, 1), ("run", 1e-4), ("begins", 1, 5, 2e-10),
        ("run", 1e-3), ("ends", 1, 5)],
    # A table that is a dict subclass: the whole tail is the reference's.
    "a table that is not a plain dict": [
        ("begins", 1, 0, LOCKED), ("begins", 1, 5, 1e-10),
        ("poke", 1, lambda world, rx: setattr(
            rx, "_arrivals", type("Table", (dict,), {})(rx._arrivals))),
        ("run", 1e-3)],
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_corner_schedules(corner):
    schedule = CORNERS[corner]
    _, reference = _play("python", 2, "on", None, schedule)
    _, compiled = _play("c", 2, "on", None, schedule)
    assert compiled == reference
    if corner.startswith("negative"):
        assert compiled[2]["radios"][1][7][4] == "0.0"
    if corner.startswith("a sum"):
        assert [entry[1] for entry in compiled[-1]["log"]] == \
            ["cca-busy", "cca-idle"]
    if corner.startswith("capture"):
        assert compiled[2]["radios"][1][4] == "pool1"
    if corner.startswith("a lock under"):
        emitters = [NOISE * share for share in (.31, .17, .23, .11, .13, .19)]
        tables = [radios[1][3] for radios in
                  (frame["radios"] for frame in compiled)]
        assert [len(table) for table in tables[5:16]] == \
            [6, 7, 7, 6, 7, 7, 6, 7, 7, 6, 6]
        locked = compiled[6]["radios"][1]
        assert locked[4] == "pool0"               # locked under all six
        assert locked[7][4] == repr(sum(emitters + [LOCKED]) - LOCKED)
        assert compiled[15]["radios"][1][1:3] == ("idle", True)  # the tail
        assert compiled[16]["radios"][1][2] is False  # five left: under CCA
        (_, _, _, _, ok, snr, _), = [entry for entry in compiled[-1]["log"]
                                      if entry[1] == "rx-end"]
        assert ok is True and 15.0 < float(snr) < 20.0  # 28.3 dB alone
    if corner.startswith("a table that does"):
        assert compiled[1]["radios"][1][4] == "pool0"      # it did lock
        assert compiled[3]["radios"][1][7][4] != "0.0"     # and refreshed
    rx_ends = [entry for entry in compiled[-1]["log"] if entry[1] == "rx-end"]
    if corner.startswith("a tail under"):
        ((_, _, _, _, _ok, snr, _),) = rx_ends
        assert 4.0 < float(snr) < 5.0     # 28.3 dB without the overlap
        assert compiled[4]["radios"][1][1:3] == ("idle", True)
    if corner.startswith("frames of"):
        assert [entry[4] for entry in rx_ends] == [True, True]
    if corner.startswith("an infinite"):
        assert [entry[5] for entry in rx_ends] == ["inf", "-inf"]
    if corner.startswith("a tracker holding") or \
            corner.startswith("a table that is not"):
        assert len(rx_ends) == 1


# --- the failure path --------------------------------------------------------

def _failure(kernel, arrange):
    """Run ``arrange(world, rx, begins, ends)`` — it schedules the
    failing delivery — under ``sim.run``; return what is left."""
    world = World(kernel, 2, "on", None)
    sim, rx = world.sim, world.radios[1]
    begins, ends = world.edges(rx)
    arrange(world, rx, begins, ends)
    # Work that is due after the failure, for the second run to find.
    sim.schedule_fast(3e-3, begins, world.pool[6], 1e-6)
    sim.schedule_fast(4e-3, ends, world.pool[6])
    before = world.snapshot()
    with pytest.raises(Exception) as caught:
        sim.run(until=1.0)
    after_raise = world.snapshot()
    running = sim._running
    # Mend the radio and carry on: the rest of the heap must drain.
    world._wire(rx)
    rx.error_model = BerErrorModel()
    if rx._locked is not None and \
            not hasattr(rx._locked_tracker, "set_interference"):
        rx._locked_tracker = rx._tracker
    sim.run(until=1.0)
    return (type(caught.value), running, before, after_raise,
            world.snapshot())


class NotATracker:
    def __repr__(self):
        return "NotATracker()"


class FailingModel(BerErrorModel):
    def frame_survives(self, snr_db, size_bits, modulation, rng):
        raise Boom("no verdict")


def _lock_then(world, rx, begins, ends, *, frame=None, at_1100us=None):
    """A frame locked at 1 ms whose tail (and whose arrival's end, which
    is popped first) is due at 1.2 ms; ``at_1100us`` runs in between."""
    frame = world.pool[0] if frame is None else frame
    world.sim.schedule_fast(1e-3, begins, frame, LOCKED)
    world.sim.schedule_fast(1.2e-3, ends, frame)
    if at_1100us is not None:
        world.sim.schedule_fast(1.1e-3, setattr, rx, *at_1100us)


def _deaf_frame(world):
    mode = dataclasses.replace(
        DOT11B.modes[0], modulation=DeafModulation("deaf", 1.0))
    return Transmission(world.radios[0], "deaf", 800, mode, 1e-3, 0.0, 2e-4)


#: case -> (the exception, the table the raise leaves, the arrangement).
FAILURES = {
    "on_cca_busy raises in arrival_begins": (
        Boom, ["pool5"], lambda world, rx, begins, ends: (
            setattr(rx, "on_cca_busy", _boom),
            world.sim.schedule_fast(1e-3, begins, world.pool[5], 1e-6),
            world.sim.schedule_fast(2e-3, ends, world.pool[5]))),
    "on_cca_idle raises in arrival_ends": (
        Boom, [], lambda world, rx, begins, ends: (
            setattr(rx, "on_cca_idle", _boom),
            world.sim.schedule_fast(1e-3, begins, world.pool[5], 1e-6),
            world.sim.schedule_fast(2e-3, ends, world.pool[5]))),
    "on_state_change raises while locking": (
        Boom, ["pool0"], lambda world, rx, begins, ends: (
            setattr(rx, "on_state_change", _boom),
            world.sim.schedule_fast(1e-3, begins, world.pool[0], 1e-9),
            world.sim.schedule_fast(1.2e-3, ends, world.pool[0]))),
    "a power that is not a number": (
        TypeError, ["pool0"], lambda world, rx, begins, ends: (
            world.sim.schedule_fast(1e-3, begins, world.pool[0], "loud"),
            world.sim.schedule_fast(2e-3, ends, world.pool[0]))),
    "a tracker that is not a SinrTracker": (
        AttributeError, ["pool2", "pool5"],
        lambda world, rx, begins, ends: (
            world.sim.schedule_fast(1e-3, begins, world.pool[2], 1e-9),
            world.sim.schedule_fast(
                1.1e-3, setattr, rx, "_locked_tracker", NotATracker()),
            world.sim.schedule_fast(1.2e-3, begins, world.pool[5], 1e-10),
            world.sim.schedule_fast(1.8e-3, ends, world.pool[5]),
            world.sim.schedule_fast(1.9e-3, ends, world.pool[2]))),
    # The reception tail: each raise leaves the lock released and the
    # radio IDLE, as the reference's first statements do.
    "on_state_change raises at the tail": (
        Boom, [], lambda world, rx, begins, ends: _lock_then(
            world, rx, begins, ends, at_1100us=("on_state_change", _boom))),
    "the error model raises at the tail": (
        Boom, [], lambda world, rx, begins, ends: _lock_then(
            world, rx, begins, ends,
            at_1100us=("error_model", FailingModel()))),
    "a handed-off PER raises at the tail": (
        Boom, [], lambda world, rx, begins, ends: _lock_then(
            world, rx, begins, ends, frame=_deaf_frame(world))),
    "on_rx_end raises at the tail": (
        Boom, [], lambda world, rx, begins, ends: _lock_then(
            world, rx, begins, ends, at_1100us=("on_rx_end", _boom))),
    "a tracker swapped before the tail": (
        AttributeError, [], lambda world, rx, begins, ends: _lock_then(
            world, rx, begins, ends,
            at_1100us=("_locked_tracker", NotATracker()))),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_a_failing_edge_fails_alike_and_the_run_continues(case):
    expected_type, expected_table, arrange = FAILURES[case]
    reference = _failure("python", arrange)
    compiled = _failure("c", arrange)
    assert compiled == reference
    raised, running, before, after_raise, drained = compiled
    assert raised is expected_type
    assert running is False                       # _running was reset
    assert after_raise["executed"] >= 1           # the counter was flushed
    failing = after_raise["radios"][1]
    # The arrival the failing delivery carried is accounted for exactly
    # as the reference leaves it: begins inserted it before anything
    # could raise, ends had removed it.
    assert [label for label, _power in failing[3]] == expected_table
    if case.endswith("the tail"):
        assert failing[1] == "idle" and failing[4] is None
        # Exactly one draw, taken after the PER is known: none when the
        # model or the handed-off PER raised, one by the time on_rx_end
        # runs.
        drew = failing[-1] != before["radios"][1][-1]
        assert drew == case.startswith("on_rx_end")
        # The idle edge fires before on_rx_end, and only there.
        assert failing[2] == (not case.startswith("on_rx_end"))
    assert drained["executed"] > after_raise["executed"]
    assert drained["radios"][1][3] == []          # the table drained
    assert drained["heap"] == []
