"""Tests for the shared medium and radio interplay.

Every test runs on both kernels: on ``kernel="c"`` each radio binds the
compiled receive edges, so delivery, carrier sense, capture and sleep
are checked on each of the two implementations.
"""

import pytest

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import SimulationError
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss, LogDistance
from repro.phy.standards import DOT11B, DOT11G
from repro.phy.transceiver import Radio, RadioState

KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


@pytest.fixture(params=KERNELS)
def sim(request):
    """A deterministic simulator with a fixed seed, on each kernel."""
    return Simulator(seed=42, kernel=request.param)


class Collector:
    def __init__(self):
        self.received = []
        self.busy_edges = 0
        self.idle_edges = 0
        self.tx_done = 0

    def phy_rx_end(self, payload, success, snr_db, mode):
        self.received.append((payload, success, snr_db))

    def phy_cca_busy(self):
        self.busy_edges += 1

    def phy_cca_idle(self):
        self.idle_edges += 1

    def phy_tx_end(self):
        self.tx_done += 1

    def plug(self, radio):
        """Fill ``radio``'s four upcall slots with these methods."""
        radio.on_rx_end, radio.on_tx_end = self.phy_rx_end, self.phy_tx_end
        radio.on_cca_busy = self.phy_cca_busy
        radio.on_cca_idle = self.phy_cca_idle
        return self


def make_pair(sim, distance=20.0, standard=DOT11B, exponent=3.0):
    medium = Medium(sim, LogDistance(standard.band_hz, exponent=exponent))
    tx = Radio("tx", medium, standard, Position(0, 0, 0))
    rx = Radio("rx", medium, standard, Position(distance, 0, 0))
    listener = Collector().plug(rx)
    return medium, tx, rx, listener


class TestDelivery:
    def test_frame_is_delivered(self, sim):
        medium, tx, rx, listener = make_pair(sim)
        tx.transmit("hello", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert len(listener.received) == 1
        payload, success, snr = listener.received[0]
        assert payload == "hello"
        assert success
        assert snr > 10.0

    def test_tx_end_callback(self, sim):
        medium, tx, rx, _ = make_pair(sim)
        sender_listener = Collector().plug(tx)
        tx.transmit("x", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert sender_listener.tx_done == 1
        assert tx.state == RadioState.IDLE

    def test_airtime_matches_standard(self, sim):
        medium, tx, rx, listener = make_pair(sim)
        mode = DOT11B.modes[0]
        duration = tx.transmit("x", 800, mode)
        assert duration == pytest.approx(DOT11B.frame_airtime(800, mode))

    def test_out_of_range_not_delivered(self, sim):
        medium, tx, rx, listener = make_pair(sim, distance=10_000.0,
                                             exponent=4.0)
        tx.transmit("x", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert listener.received == []

    def test_channel_isolation(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx = Radio("tx", medium, DOT11B, Position(0, 0, 0), channel_id=1)
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0), channel_id=6)
        listener = Collector().plug(rx)
        tx.transmit("x", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert listener.received == []

    def test_foreign_mode_not_decoded(self, sim):
        """A 802.11b-only radio hears OFDM energy but cannot decode it."""
        medium = Medium(sim, FixedLoss(50.0))
        tx = Radio("tx", medium, DOT11G, Position(0, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0))
        listener = Collector().plug(rx)
        tx.transmit("x", 800, DOT11G.modes[0])
        sim.run(until=0.1)
        assert listener.received == []
        # But the energy still drove CCA busy.
        assert listener.busy_edges >= 1

    def test_mixed_mode_radio_decodes_both(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx_b = Radio("txb", medium, DOT11B, Position(0, 0, 0))
        rx = Radio("rx", medium, DOT11G, Position(5, 0, 0))
        rx.allow_decoding(DOT11B)
        listener = Collector().plug(rx)
        tx_b.transmit("legacy", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert [entry[0] for entry in listener.received] == ["legacy"]


class TestCca:
    def test_busy_during_transmission_then_idle(self, sim):
        medium, tx, rx, listener = make_pair(sim, distance=10.0)
        tx.transmit("x", 8000, DOT11B.modes[0])
        sim.run(until=1.0)
        assert listener.busy_edges == 1
        assert listener.idle_edges == 1
        assert not rx.cca_busy()

    def test_own_transmission_is_busy(self, sim):
        medium, tx, rx, _ = make_pair(sim)
        tx.transmit("x", 8000, DOT11B.modes[0])
        assert tx.cca_busy()


class TestCollisions:
    def test_equal_power_overlap_corrupts(self, sim):
        medium = Medium(sim, FixedLoss(60.0))
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(10, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0))
        listener = Collector().plug(rx)
        # CCK-11 carries 8 bits/symbol: no spreading margin to ride out a
        # 0 dB SINR overlap (DSSS-1's Barker gain can survive it).
        mode = DOT11B.mode_for_rate(11e6)
        sim.schedule(0.0, lambda: a.transmit("A", 8000, mode))
        sim.schedule(0.0001, lambda: b.transmit("B", 8000, mode))
        sim.run(until=0.5)
        # The locked frame (A) must be corrupted by B's interference.
        outcomes = {payload: success
                    for payload, success, _ in listener.received}
        assert outcomes.get("A") is False

    def test_capture_strong_late_frame(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        weak = Radio("weak", medium, DOT11B, Position(200, 0, 0))
        strong = Radio("strong", medium, DOT11B, Position(2, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(0, 0, 0))
        listener = Collector().plug(rx)
        mode = DOT11B.modes[0]
        sim.schedule(0.0, lambda: weak.transmit("weak", 8000, mode))
        sim.schedule(0.0005, lambda: strong.transmit("strong", 8000, mode))
        sim.run(until=0.5)
        payloads = [entry[0] for entry in listener.received
                    if entry[1]]
        assert "strong" in payloads

    def test_half_duplex_tx_aborts_rx(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        peer = Radio("peer", medium, DOT11B, Position(1, 0, 0))
        me = Radio("me", medium, DOT11B, Position(0, 0, 0))
        listener = Collector().plug(me)
        mode = DOT11B.modes[0]
        sim.schedule(0.0, lambda: peer.transmit("in", 80000, mode))
        # Start transmitting mid-reception: the reception must be dropped.
        sim.schedule(0.001, lambda: me.transmit("out", 800, mode))
        sim.run(until=0.5)
        assert all(payload != "in" for payload, _ok, _s in listener.received)


class TestSleep:
    def test_sleeping_radio_receives_nothing(self, sim):
        medium, tx, rx, listener = make_pair(sim, distance=5.0)
        rx.sleep()
        tx.transmit("x", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert listener.received == []

    def test_wake_restores_reception(self, sim):
        medium, tx, rx, listener = make_pair(sim, distance=5.0)
        rx.sleep()
        rx.wake()
        tx.transmit("x", 800, DOT11B.modes[0])
        sim.run(until=0.1)
        assert len(listener.received) == 1

    def test_cannot_transmit_while_asleep(self, sim):
        medium, tx, rx, _ = make_pair(sim)
        tx.sleep()
        with pytest.raises(SimulationError):
            tx.transmit("x", 800, DOT11B.modes[0])


class TestIntrospection:
    def test_link_snr_reporting(self, sim):
        medium, tx, rx, _ = make_pair(sim, distance=20.0)
        snr = medium.link_snr_db(tx, rx)
        assert snr > 0.0
        power = medium.link_rx_power_dbm(tx, rx)
        assert power < 0.0  # well below 1 mW after 20 m
