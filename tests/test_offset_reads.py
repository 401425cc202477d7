"""The compiled receive path reads its frames and holders by offset.

Every field the compiled receive twins read off a frame (``mode``,
``duration``, ``size_bits``, ``payload``), its mode (``name``,
``modulation``), the modulation's four floats, the radio's
``RadioConfig``, ``CaptureModel`` and trace sink (``TraceLog`` or
``TraceDigest``), and the MAC's ``Counter`` comes from a ``__slots__``
offset that ``repro.core._ckernel.resolve`` found once per process.
This file is the exact counter behind that claim: it sets
``__getattribute__`` on each of those eight classes (the class stays the class, so the twins'
exactness checks still pass) and counts what one call of each twin
looks up by name.  The count is zero for every twin, in every step
that needs no Python: an arrival edge that captures, one that locks,
one too weak to lock; a decoded reception tail and a corrupt one; the
frame demux for an overheard frame and for a corrupt one.  What Python
code reads — a rate controller's build, the transmit path — is outside
these calls; a tail traced into a ``TraceDigest``, as every simulator of
``tests/test_macro_pins.py``'s traced pass is, reads by name only what
its trace record reads.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

from collections import Counter as Tally
from contextlib import contextmanager

import pytest

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.stats import Counter
from repro.core.trace import TraceDigest, TraceLog
from repro.mac.addresses import MacAddress, allocate_address
from repro.mac.dcf import DcfMac
from repro.mac.frames import make_rts
from repro.phy.channel import ENERGY_ONLY, Medium, Transmission
from repro.phy.interference import CaptureModel
from repro.phy.modulation import Modulation
from repro.phy.propagation import FreeSpace
from repro.phy.standards import DOT11B, PhyMode
from repro.phy.transceiver import Radio, RadioConfig

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

#: The classes the compiled receive path reads by offset.
HOOKED = (Transmission, PhyMode, Modulation, CaptureModel, RadioConfig,
          TraceLog, TraceDigest, Counter)

NOISE = DOT11B.noise_floor_watts
MODE = DOT11B.modes[0]
STRANGER, BYSTANDER = MacAddress(0x0200000000AA), MacAddress(0x0200000000AB)


@contextmanager
def counting(reads):
    """Count every by-name read on ``HOOKED`` instances into ``reads``."""
    for cls in HOOKED:
        def hook(self, name, owner=cls.__name__):
            reads[f"{owner}.{name}"] += 1
            return object.__getattribute__(self, name)
        cls.__getattribute__ = hook
    try:
        yield reads
    finally:
        for cls in HOOKED:
            del cls.__getattribute__


class Cell:
    """A bare receiver (no MAC: its upcalls run no Python that reads a
    hooked class) and a station whose radio a DcfMac drives."""

    def __init__(self, trace=None):
        self.sim = sim = Simulator(
            seed=3, kernel="c",
            trace=TraceLog(enabled=False) if trace is None else trace)
        self.ext = sim._ext
        medium = Medium(sim, FreeSpace(2.4e9))
        self.sender = Radio("tx", medium, DOT11B, Position(0.0, 0.0, 0.0))
        self.rx = Radio("rx", medium, DOT11B, Position(5.0, 0.0, 0.0),
                        config=RadioConfig(capture=CaptureModel()))
        self.mac = DcfMac(sim, Radio("sta", medium, DOT11B,
                                     Position(9.0, 0.0, 0.0)),
                          allocate_address())
        self.delivered = []
        self.rx.on_rx_end = lambda payload, ok, snr, mode: \
            self.delivered.append((payload, ok))

    def frame(self, payload, mode=MODE):
        return Transmission(self.sender, payload, 800, mode, 1e-3, 0.0, 2e-4)

    def lock(self, payload, watts):
        frame = self.frame(payload)
        self.ext.arrival_begins(self.rx, frame, watts)
        assert self.rx._locked is frame
        return frame


def _too_weak(cell):
    frame = cell.frame("faint")
    return (lambda: cell.ext.arrival_begins(cell.rx, frame, NOISE * 0.5),
            lambda: cell.rx._locked is None and frame in cell.rx._arrivals)


def _locks(cell):
    frame = cell.frame("clear")
    return (lambda: cell.ext.arrival_begins(cell.rx, frame, NOISE * 1e4),
            lambda: cell.rx._locked is frame)


def _captures(cell):
    cell.lock("first", NOISE * 1e3)
    frame = cell.frame("louder")
    return (lambda: cell.ext.arrival_begins(cell.rx, frame, NOISE * 1e6),
            lambda: cell.rx._locked is frame)


def _decoded_tail(cell):
    cell.lock("clear", NOISE * 1e4)
    return (lambda: cell.ext._reception_complete(cell.rx),
            lambda: cell.delivered == [("clear", True)])


def _corrupt_tail(cell):
    cell.lock("buried", NOISE * 1.5)
    # Energy under the 10 dB capture margin: interference, not a lock.
    cell.ext.arrival_begins(cell.rx, cell.frame("noise", ENERGY_ONLY),
                            NOISE * 10.0)
    return (lambda: cell.ext._reception_complete(cell.rx),
            lambda: cell.delivered == [("buried", False)])


def _overheard(cell):
    mac = cell.mac
    # The transmitter's rate controller is built (in Python) first.
    warm = make_rts(STRANGER, BYSTANDER, 100)
    cell.ext.phy_rx_end(mac, warm, True, 20.0, MODE)
    frame = make_rts(STRANGER, BYSTANDER, 900)
    assert frame.rx_verdict[0] == BYSTANDER.value  # derived: not a read
    before = mac.counters.get("nav_updates")
    return (lambda: cell.ext.phy_rx_end(mac, frame, True, 20.0, MODE),
            lambda: mac.counters.get("nav_updates") == before + 1)


def _corrupt_frame(cell):
    mac = cell.mac
    frame = make_rts(STRANGER, BYSTANDER, 900)
    return (lambda: cell.ext.phy_rx_end(mac, frame, False, -3.0, MODE),
            lambda: mac.counters.get("rx_corrupt") == 1 and mac._use_eifs)


#: Each compiled receive step: cell -> (the twin's call, its outcome).
STEPS = {
    "arrival_begins: too weak to lock": _too_weak,
    "arrival_begins: locks": _locks,
    "arrival_begins: captures": _captures,
    "_reception_complete: decoded": _decoded_tail,
    "_reception_complete: corrupt": _corrupt_tail,
    "phy_rx_end: overheard": _overheard,
    "phy_rx_end: corrupt": _corrupt_frame,
}


@pytest.mark.parametrize("step", list(STEPS))
def test_a_compiled_receive_step_reads_nothing_by_name(step):
    call, took_the_step = STEPS[step](Cell())
    with counting(Tally()) as reads:
        call()
    assert took_the_step()
    assert not reads, f"{sum(reads.values())} by-name reads: {dict(reads)}"


def test_a_tail_traced_into_a_digest_stays_compiled():
    """The pins' traced pass keeps the compiled tail: under a
    ``TraceDigest`` it reads by name exactly what the trace record
    (``Radio._trace_rx_end``) reads, where the reference tail would read
    the frame's size, its modulation and the sink's flag as well."""
    cell = Cell(TraceDigest())
    frame = cell.lock("clear", NOISE * 1e4)
    records = cell.sim.trace.records
    with counting(Tally()) as tail:
        cell.ext._reception_complete(cell.rx)
    assert cell.delivered == [("clear", True)]
    assert cell.sim.trace.records == records + 1
    probe = Cell(TraceDigest()).rx
    with counting(Tally()) as record:
        probe._trace_rx_end(0.0, frame, True, 20.0)
    assert tail == record and "Transmission.mode" in tail
    assert "TraceDigest.enabled" not in tail


def test_the_hook_sees_a_read_by_name():
    """The counter bites: the Python reference's tail reads the frame,
    its mode, the modulation's floats and the trace log by name."""
    cell = Cell()
    cell.lock("clear", NOISE * 1e4)
    with counting(Tally()) as reads:
        Radio._reception_complete(cell.rx)
    assert cell.delivered == [("clear", True)]
    assert {"Transmission.mode", "Transmission.size_bits",
            "PhyMode.modulation", "Modulation.code_rate",
            "TraceLog.enabled"} <= set(reads)
    assert all(cls.__getattribute__ is object.__getattribute__
               for cls in HOOKED)
