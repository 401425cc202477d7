"""What a frame costs in Python on the compiled kernel, counted, not
timed, so load on the machine cannot move it.

On ``kernel="c"`` a plain ``DcfMac`` and a ``FrameInjector`` send
through the ``transmit`` their radio was served (``radio._transmit``):
a small saturated cell (``specs/dcf_saturation_100.toml``, five senders)
and an injector's flood call none of ``Radio.transmit``,
``Radio._tx_complete``, ``Medium.transmit`` and ``Transmission.__init__``
under ``cProfile`` (the Python kernel calls each per frame), with the
Python kernel's stats.  ``_ckernel.phy_rx_end`` answers corrupt and
overheard frames itself: under ``sys.setprofile`` a saturated lossy
cell enters ``DcfMac.phy_rx_end`` for addressed frames only, so routing
overheard frames back through the interpreter fails here by name, not
by 15 % on a noisy box.

Observing the air keeps a frame compiled: with telemetry armed, and on
coupled shards that export every frame, no radio's frame enters the
Python ``Medium.transmit`` on ``kernel="c"`` (under ``sys.setprofile``;
the Python kernel enters it once per frame).
"""

import cProfile
import json
import pstats
import sys

import pytest

from repro.adversary.attacks import FrameInjector
from repro.campaign import run_job
from repro.core import Position, Simulator
from repro.core.engine import Timer, ckernel_available
from repro.core.stats import Counter
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.dcf import DcfMac
from repro.mac.frames import Dot11Frame, make_cts, make_rts
from repro.phy.channel import Medium, Transmission
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio

from parallel.test_executor import _framing_build, coupled_in_process, spec
from test_slot_differential import BASIC, BYSTANDER, STRANGER, MacWorld

needs_the_extension = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

#: The Python transmit path, by ``pstats`` key.
TRANSMIT_PATH = {
    (code.co_filename, code.co_firstlineno, code.co_name):
        function.__qualname__
    for function in (Radio.transmit, Radio._tx_complete, Medium.transmit,
                     Transmission.__init__)
    for code in (function.__code__,)}


def _profiled(send, *args):
    """``send(*args)``'s stats and its calls of each function of the
    path."""
    profile = cProfile.Profile()
    stats = profile.runcall(send, *args)
    calls = dict.fromkeys(TRANSMIT_PATH.values(), 0)
    for key, (_primitive, count, *_rest) \
            in pstats.Stats(profile).stats.items():
        if key in TRANSMIT_PATH:
            calls[TRANSMIT_PATH[key]] = count
    return stats, calls


def _cell(spec_job, kernel):
    return run_job(spec_job("dcf_saturation_100", {
        "mode.kernel": kernel, "scenario.horizon": 0.05,
        "scenario.params.stations_per_bss": 5}))


def _flood(spec_job, kernel):
    """Forty spoofed CTSs from a ``FrameInjector``, one radio to hear
    them: the injector's counters and the medium's plan counters."""
    sim = Simulator(seed=5, kernel=kernel)
    medium = Medium(sim, FixedLoss(50.0))
    Radio("rx", medium, DOT11B, Position(2.0, 0.0, 0.0))
    injector = FrameInjector(sim, medium, DOT11B)
    for _ in range(40):
        injector.inject(make_cts(MacAddress(0x020000000063), 300))
    sim.run(until=0.05)
    return dict(injector.counters.as_dict(),
                fanout_plan_hits=medium.plan_hits,
                fanout_plan_misses=medium.plan_misses)


#: Who sends the frames: name -> (spec_job, kernel) -> stats.
SENDERS = {"a MAC": _cell, "a FrameInjector": _flood}


@needs_the_extension
@pytest.mark.parametrize("sender", sorted(SENDERS))
def test_a_sent_frame_costs_no_python_transmit_call(sender, spec_job):
    send = SENDERS[sender]
    reference, python_calls = _profiled(send, spec_job, "python")
    frames = reference["fanout_plan_hits"] + reference["fanout_plan_misses"]
    assert frames > 0, "nothing was sent: the row tests nothing"
    # One of each per frame; the last may end past the horizon.
    assert python_calls["Radio.transmit"] == frames
    assert min(python_calls.values()) >= frames - 1
    stats, calls = _profiled(send, spec_job, "c")
    assert calls == dict.fromkeys(TRANSMIT_PATH.values(), 0)
    assert stats == reference


def _armed(spec_job, kernel, _monkeypatch):
    """The ``dcf_saturation`` job with telemetry armed: its frames, as
    its own ``medium/frames`` counters sum them."""
    streams = {}
    run_job(spec_job("dcf_saturation", {
        "mode.kernel": kernel, "mode.telemetry": True}), streams)
    return sum(record["value"] for record in map(
        json.loads, streams["telemetry_jsonl"].splitlines())
        if record["type"] == "metric"
        and (record["subsystem"], record["name"]) == ("medium", "frames"))


def _sharded(_spec_job, kernel, monkeypatch):
    """Two coupled shards, each medium exporting its channel: the frames
    their radios sent."""
    monkeypatch.setenv("REPRO_KERNEL", kernel)
    built = []
    coupled_in_process([spec("a", x=0.0, build=_framing_build),
                        spec("b", x=100.0, build=_framing_build)], 2e-3,
                       built.append)
    return sum(collector()["frames"] for shard in built
               for collector in shard.collectors.values())


#: Observed runs: name -> (spec_job, kernel, monkeypatch) -> frames.
OBSERVED = {"armed telemetry": _armed, "coupled shards": _sharded}

KERNELS = ["python", pytest.param("c", marks=needs_the_extension)]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("run", sorted(OBSERVED))
def test_an_observed_frame_stays_compiled(run, kernel, spec_job,
                                          monkeypatch):
    entered, reference = [], Medium.transmit.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is reference \
                and isinstance(frame.f_locals["sender"], Radio):
            entered.append(frame.f_locals["payload"])

    sys.setprofile(profile)
    try:
        frames = OBSERVED[run](spec_job, kernel, monkeypatch)
    finally:
        sys.setprofile(None)
    assert frames > 0, "nothing was sent: the row tests nothing"
    assert len(entered) == (frames if kernel == "python" else 0)


def _demuxed(play):
    """``play()`` under ``sys.setprofile``: each call of the Python
    ``DcfMac.phy_rx_end`` as (station, frame, success)."""
    entered, reference = [], DcfMac.phy_rx_end.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is reference:
            entered.append(tuple(map(frame.f_locals.get,
                                     ("self", "payload", "success"))))

    sys.setprofile(profile)
    try:
        play()
    finally:
        sys.setprofile(None)
    return entered


@needs_the_extension
def test_the_interpreter_is_entered_for_addressed_frames_only():
    world = MacWorld("c", 6, per=0.3, rts=True)
    macs = world.macs
    for index, mac in enumerate(macs):
        for size in (700, 40, 300):          # over and under the RTS threshold
            mac.send(macs[(index + 1) % 6].address, bytes(size))
        mac.send(BROADCAST, bytes(60))
    entered = _demuxed(lambda: world.sim.run(until=0.15))
    kinds = set()
    for mac, frame, success in entered:
        assert success is True, "a corrupt frame entered the interpreter"
        assert type(frame) is Dot11Frame
        assert frame.addr1 == mac.address or frame.addr1.is_broadcast, \
            "an overheard frame entered the interpreter"
        kinds.add("broadcast" if frame.addr1.is_broadcast else
                  "rts" if frame.is_rts else "cts" if frame.is_cts else
                  "ack" if frame.is_ack else "data")
    assert kinds == {"broadcast", "rts", "cts", "ack", "data"}
    # The compiled demux did run, on what never showed up above ...
    totals = Counter()
    for mac in macs:
        totals.merge(mac.counters)
    assert totals.get("nav_updates") > 100 and totals.get("rx_corrupt") > 100
    # ... and what did show up was handled (the late ACK and the
    # unexpected CTS feed no counter, hence no equality).
    handled = sum(totals.get(name) for name in (
        "rx_data", "rx_rts", "rx_cts", "rx_ack"))
    assert 0 < handled <= len(entered)


@needs_the_extension
def test_the_canonical_case_is_compiled_work():
    """The differential's fields of the wrong type are only worth their
    names if the same call, with nothing planted, is answered without
    the method."""
    mac = MacWorld("c", 3).macs[0]
    calls = _demuxed(lambda: [mac.radio.on_rx_end(*args) for args in (
        (make_rts(STRANGER, BYSTANDER, 900), True, 25.0, BASIC),
        (make_rts(STRANGER, BYSTANDER, 900), False, 25.0, BASIC),
        (make_cts(mac.address, 0), True, 25.0, BASIC))])
    assert sorted(mac.counters.as_dict().items()) == [
        ("nav_updates", 1), ("rx_corrupt", 1)]
    assert [frame.is_cts for _mac, frame, _ok in calls] == [True]   # ours
    assert isinstance(mac.nav._timer, Timer) and mac.nav._timer._armed
