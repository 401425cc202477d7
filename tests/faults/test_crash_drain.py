"""Crashing a node mid-activity must leave the rest of the air truthful.

Satellite coverage: crash-during-TX and crash-during-backoff.  The
in-flight burst keeps propagating (it already left the antenna), every
peer's arrival table drains on its own, and carrier sense reads an idle
channel once the air clears.
"""

import pytest

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.mac.addresses import reset_allocator
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio, RadioState
from repro.traffic import DeliveryCounter

A = Position(0, 0, 0)
B = Position(10, 0, 0)

# The drain checks run on both kernels: the compiled receive edges keep
# their own arrival-table bookkeeping.
KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


def _pair(sim):
    medium = Medium(sim, FixedLoss(50.0))
    tx_radio = Radio("crasher", medium, DOT11B, A)
    tx = DcfMac(sim, tx_radio, allocate_address())
    rx_radio = Radio("peer", medium, DOT11B, B)
    rx = DcfMac(sim, rx_radio, allocate_address())
    counter = DeliveryCounter()
    rx.listener = counter
    return medium, tx, rx, counter


def _crash(mac):
    mac.crash()
    mac.radio.power_off()


def _start_long_tx(sim, tx, rx):
    """Queue a big frame and run until the sender's PHY is mid-burst.

    1500 B at ARF's starting 11 Mb/s is a ~1.3 ms burst; DIFS plus a
    maximal initial backoff is under 0.7 ms, so stopping 0.7 ms after
    the send always lands inside the burst.
    """
    starts = []
    tx.radio.on_state_change = (
        lambda v: starts.append(sim.now) if v == RadioState.TX.value
        else None)
    tx.send(rx.address, bytes(1500))
    sim.run(until=sim.now + 0.0007)
    assert tx.radio.state is RadioState.TX
    tx.radio.on_state_change = None
    return starts[0]


class TestCrashDuringTx:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_arrivals_drain(self, kernel):
        sim = Simulator(seed=7, kernel=kernel)
        medium, tx, rx, counter = _pair(sim)
        _start_long_tx(sim, tx, rx)
        # Mid-burst: the peer is already seeing the energy.
        assert rx.radio.total_incident_power_watts() > 0.0
        _crash(tx)
        assert tx.radio.state is RadioState.SLEEP
        sim.run(until=sim.now + 0.1)
        assert not rx.radio._arrivals
        assert rx.radio.total_incident_power_watts() == 0.0
        assert rx.radio.cca_busy() is False

    def test_stale_tx_complete_is_suppressed(self):
        sim = Simulator(seed=7)
        medium, tx, rx, counter = _pair(sim)
        ends = []
        original = tx.radio.on_tx_end

        def spy():
            ends.append(sim.now)
            original()
        tx.radio.on_tx_end = spy
        _start_long_tx(sim, tx, rx)
        _crash(tx)
        sim.run(until=sim.now + 0.1)
        # schedule_fast events cannot be cancelled: the completion event
        # still pops, but the epoch bump makes it a no-op — the radio
        # stays powered off and no tx-end upcall fires.
        assert ends == []
        assert tx.radio.state is RadioState.SLEEP

    def test_quick_restart_new_tx_outlives_stale_completion(self):
        def build():
            reset_allocator()
            sim = Simulator(seed=7)
            return (sim,) + _pair(sim)

        # Control run, same seed: learn when the first burst's
        # completion event fires.  The crash run below is bit-identical
        # up to the crash, so its stale completion pops at this time.
        sim, medium, tx, rx, counter = build()
        changes = []
        tx.radio.on_state_change = lambda v: changes.append((sim.now, v))
        tx.send(rx.address, bytes(1500))
        sim.run(until=0.05)
        start = next(t for t, v in changes if v == RadioState.TX.value)
        old_end = next(t for t, v in changes
                       if t > start and v != RadioState.TX.value)

        sim, medium, tx, rx, counter = build()
        tx.send(rx.address, bytes(1500))
        # Crash early in the burst so the reboot's new burst (DIFS +
        # initial backoff < 0.7 ms later) is on the air well before the
        # dead burst's completion event pops.
        sim.run(until=start + (old_end - start) * 0.1)
        assert tx.radio.state is RadioState.TX
        _crash(tx)
        tx.radio.power_on()
        tx.send(rx.address, bytes(1500))
        sim.run(until=old_end + 1e-6)
        # The stale completion popped while the new burst was on the
        # air; the epoch guard must not end the new burst early.
        assert tx.radio.state is RadioState.TX
        sim.run(until=old_end + 0.5)
        assert tx.radio.state is not RadioState.TX
        assert counter.frames >= 1

    def test_peer_recovers_the_channel(self):
        """After the crasher's energy drains the peer can win the medium
        and deliver to a third node as if the crash never happened."""
        sim = Simulator(seed=7)
        medium, tx, rx, counter = _pair(sim)
        third_radio = Radio("third", medium, DOT11B, Position(5, 5, 0))
        third = DcfMac(sim, third_radio, allocate_address())
        third_counter = DeliveryCounter()
        third.listener = third_counter
        _start_long_tx(sim, tx, rx)
        _crash(tx)
        rx.send(third.address, bytes(200))
        sim.run(until=sim.now + 0.5)
        assert third_counter.frames == 1
        assert not rx.radio.cca_busy()


class TestCrashDuringBackoff:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_countdown_cancelled_and_air_drains(self, kernel):
        sim = Simulator(seed=7, kernel=kernel)
        medium, tx, rx, counter = _pair(sim)
        third_radio = Radio("third", medium, DOT11B, Position(5, 5, 0))
        third = DcfMac(sim, third_radio, allocate_address())
        # Get the crasher deferring: queue its frame while the third
        # node's burst holds the medium busy.
        _start_long_tx(sim, third, rx)
        tx.send(rx.address, bytes(200))
        sim.run(until=sim.now + 1e-4)
        assert tx.radio.state is not RadioState.TX
        _crash(tx)
        assert not tx._countdown._armed
        assert not tx._ifs._armed
        assert tx.queue.empty and tx._current is None
        sim.run(until=sim.now + 0.5)
        # The crasher never transmitted its queued frame...
        assert counter.frames == 1          # the third node's frame only
        # ...and everyone's interference state drained clean.
        for radio in (tx.radio, rx.radio, third.radio):
            assert not radio._arrivals
            assert radio.cca_busy() is False

    def test_nav_cleared_on_crash(self):
        sim = Simulator(seed=7)
        medium, tx, rx, counter = _pair(sim)
        tx.nav.set_until(sim.now + 0.01)
        assert tx.nav.busy
        tx.crash()
        assert not tx.nav.busy
