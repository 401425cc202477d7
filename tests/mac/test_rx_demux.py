"""The compiled frame demux: who enters the interpreter, and how it fails.

``repro.core._ckernel.phy_rx_end`` answers a corrupt frame and a frame
overheard by a third party itself and is ``DcfMac.phy_rx_end`` — the
whole call — for every frame addressed to the station or to a group.
``tests/mac/test_access_parity.py`` holds that nothing observable
differs, schedule by schedule.  This file holds the other two halves of
the contract:

* the interpreter is entered once per *addressed* frame: a saturated
  lossy cell under ``sys.setprofile`` sees the Python method for nothing
  else, so an edit that quietly routes overheard frames back through the
  interpreter fails here by name, not by 15 % on a noisy box;
* the failure path: a raising rate factory, a raising SNR feed and a
  frame whose verdict cannot be derived surface from ``sim.run()`` as the
  reference's exception with the reference's state (a field of the
  wrong type is the reference's whole call, decided before anything is
  written: ``tests/test_slot_differential.py``).

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

import sys

import pytest

from repro.core.engine import Timer, ckernel_available
from repro.core.stats import Counter
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.dcf import DcfMac
from repro.mac.frames import Dot11Frame, make_cts, make_rts
from repro.mac.rate_adapt import FixedRate

from test_access_parity import BASIC, STRANGER, Boom, World, _boom

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

BYSTANDER = MacAddress(STRANGER.value + 1)


def _reserving():
    """Third-party traffic that names a transmitter and reserves 900 us."""
    return make_rts(STRANGER, BYSTANDER, 900)


# --- who enters the interpreter ----------------------------------------------

def test_the_interpreter_is_entered_for_addressed_frames_only():
    world = World("c", 6, per=0.3, rts=True)
    macs, sim = world.macs, world.sim
    for index, mac in enumerate(macs):
        for size in (700, 40, 300):          # over and under the RTS threshold
            mac.send(macs[(index + 1) % 6].address, bytes(size))
        mac.send(BROADCAST, bytes(60))
    entered = []
    reference = DcfMac.phy_rx_end.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is reference:
            entered.append((frame.f_locals["self"], frame.f_locals["payload"],
                            frame.f_locals["success"]))

    sys.setprofile(profile)
    try:
        sim.run(until=0.15)
    finally:
        sys.setprofile(None)
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


# --- the failure path ----------------------------------------------------------

class Deafened(FixedRate):
    """A controller whose SNR feed raises until it is mended."""

    broken = True

    def __init__(self, standard):
        super().__init__(standard, standard.modes[-1])

    def on_snr_measurement(self, snr_db):
        if self.broken:
            raise Boom("no feed")


def _raising_factory(world):
    mac = world.macs[0]
    factory, mac._rate_factory = mac._rate_factory, _boom
    return _reserving(), lambda: setattr(mac, "_rate_factory", factory)


def _raising_feed(world):
    mac = world.macs[0]
    factory, mac._rate_factory = mac._rate_factory, Deafened

    def mend():
        mac._rate_factory = factory
        for controller in mac._controllers.values():
            controller.broken = False
    return _reserving(), mend


def _underivable_verdict(world):
    return make_cts("nobody", 900), lambda: None


def _failure(kernel, arrange):
    world = World(kernel, 3)
    sim = world.sim
    frame, mend = arrange(world)
    world.jammer.transmit(frame, frame.wire_size_bits(), BASIC)
    raised = []
    while True:                              # once per station it trips
        try:
            sim.run(until=2e-3)
            break
        except (Boom, AttributeError) as exc:
            raised.append((type(exc).__name__, str(exc), sim._running,
                           world.snapshot()))
    mend()
    # The run goes on: the stations that were spared take the
    # reservation, and an exchange after it completes.
    world.macs[1].send(world.macs[0].address, bytes(40))
    sim.run(until=1e-2)
    return raised, world.snapshot()


@pytest.mark.parametrize("arrange", [
    _raising_factory, _raising_feed, _underivable_verdict],
    ids=lambda arrange: arrange.__name__.strip("_"))
def test_a_failing_demux_fails_alike_and_the_run_continues(arrange):
    reference = _failure("python", arrange)
    compiled = _failure("c", arrange)
    assert compiled == reference
    raised, drained = compiled
    assert len(raised) == (3 if arrange is _underivable_verdict else 1)
    kind, _message, running, after = raised[0]
    assert kind == ("AttributeError" if arrange is _underivable_verdict
                    else "Boom")
    assert running is False                       # _running was reset
    assert after["executed"] >= 1                 # the counter was flushed
    failed = dict(after["macs"][0])
    # The NAV was not reached, whichever statement raised ...
    assert failed["nav"][1] == "0.0" and failed["counters"] == []
    # ... a raising factory inserts nothing; a raising feed raises after
    # its controller was inserted.
    assert len(failed["_controllers"]) == (arrange is _raising_feed)
    assert drained["executed"] > raised[-1][3]["executed"]
    assert dict(dict(drained["macs"][1])["counters"])["msdu_delivered"] == 1
    if arrange is not _underivable_verdict:
        for index in (1, 2):                  # spared: they took the NAV
            assert dict(dict(drained["macs"][index])["counters"])[
                "nav_updates"] >= 1


def test_the_canonical_case_is_compiled_work():
    """The differential's fields of the wrong type
    (``tests/test_slot_differential.py``) are only worth their names if
    the same call, with nothing planted, is answered without the
    method."""
    world = World("c", 3)
    mac = world.macs[0]
    calls = []
    reference = DcfMac.phy_rx_end.__code__

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is reference:
            calls.append(frame.f_locals["payload"])

    sys.setprofile(profile)
    try:
        for success in (True, False):
            mac.radio.on_rx_end(_reserving(), success, 25.0, BASIC)
        mac.radio.on_rx_end(make_cts(mac.address, 0), True, 25.0, BASIC)
    finally:
        sys.setprofile(None)
    assert sorted(mac.counters.as_dict().items()) == [
        ("nav_updates", 1), ("rx_corrupt", 1)]
    assert [frame.is_cts for frame in calls] == [True]    # ours: the method
    assert isinstance(mac.nav._timer, Timer) and mac.nav._timer._armed
