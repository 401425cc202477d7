"""Slot-level timing verification of the DCF, from the event trace.

These tests pin the MAC to the standard's interframe spacing: DIFS
before a fresh transmission on an idle medium, exactly SIFS between a
data frame and its ACK, and NAV-honouring deferral around an overheard
RTS/CTS reservation.
"""

import pytest

from repro.core import Position
from repro.core.units import SPEED_OF_LIGHT
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio


def build(sim, count=2, config=None, distance=3.0):
    medium = Medium(sim, FixedLoss(50.0))
    macs = []
    for index in range(count):
        radio = Radio(f"n{index}", medium, DOT11B,
                      Position(index * distance, 0, 0))
        macs.append(DcfMac(sim, radio, allocate_address(), config=config,
                           rate_factory=fixed_rate_factory("DSSS-1")))
    return medium, macs


def tx_starts(sim, source):
    return [record.time for record in
            sim.trace.select(source=source, event="phy-tx-start")]


class TestInterframeSpacing:
    def test_fresh_access_waits_exactly_difs(self, sim):
        _, (tx, rx) = build(sim)
        enqueue_at = 0.010
        sim.schedule(enqueue_at, lambda: tx.send(rx.address, b"x" * 50))
        sim.run(until=0.5)
        first_tx = tx_starts(sim, "n0")[0]
        assert first_tx == pytest.approx(enqueue_at + DOT11B.difs,
                                         abs=1e-9)

    def test_ack_comes_exactly_sifs_after_data(self, sim):
        _, (tx, rx) = build(sim, distance=3.0)
        tx.send(rx.address, b"x" * 50)
        sim.run(until=0.5)
        data_start = tx_starts(sim, "n0")[0]
        mode = DOT11B.modes[0]
        frame_bits = (24 + 50 + 4) * 8
        data_end = data_start + DOT11B.frame_airtime(frame_bits, mode)
        ack_start = tx_starts(sim, "n1")[0]
        propagation = 3.0 / SPEED_OF_LIGHT
        assert ack_start == pytest.approx(
            data_end + propagation + DOT11B.sifs, abs=1e-9)

    def test_back_to_back_frames_separated_by_backoff(self, sim):
        """After a success the sender must run a post-transmission
        backoff: the second frame cannot start before DIFS after the
        first exchange completes."""
        _, (tx, rx) = build(sim)
        tx.send(rx.address, b"a" * 50)
        tx.send(rx.address, b"b" * 50)
        sim.run(until=0.5)
        starts = tx_starts(sim, "n0")
        assert len(starts) == 2
        mode = DOT11B.modes[0]
        first_airtime = DOT11B.frame_airtime((24 + 50 + 4) * 8, mode)
        ack_airtime = DOT11B.frame_airtime(14 * 8, mode)
        exchange_end = starts[0] + first_airtime + DOT11B.sifs + ack_airtime
        assert starts[1] >= exchange_end + DOT11B.difs - 1e-9


class TestNavDeferral:
    def test_bystander_defers_for_the_cts_reservation(self, sim):
        """A station that hears only the CTS must stay silent for the
        whole reserved exchange (the hidden-terminal protection)."""
        config = DcfConfig(rts_threshold_bytes=100)
        _, (tx, rx, bystander) = build(sim, count=3, config=config)
        tx.send(rx.address, bytes(800))
        # The bystander queues its own frame mid-reservation.
        sim.schedule(0.002, lambda: bystander.send(tx.address, b"y" * 50))
        sim.run(until=0.5)
        # It must not have transmitted inside tx's protected exchange:
        # every bystander transmission starts after tx received its ACK.
        ack_done = tx_starts(sim, "n1")[-1]  # rx's last tx = final ACK
        for start in tx_starts(sim, "n2"):
            assert start > ack_done

    def test_nav_updates_recorded_for_overheard_rts(self, sim):
        config = DcfConfig(rts_threshold_bytes=100)
        _, (tx, rx, bystander) = build(sim, count=3, config=config)
        tx.send(rx.address, bytes(800))
        sim.run(until=0.5)
        assert bystander.counters.get("nav_updates") >= 1


class TestEifs:
    def test_corrupted_reception_counted_and_recovered(self, sim):
        """A station that cannot decode a frame applies EIFS; traffic
        still flows afterwards."""
        from repro.phy.error_models import FixedPerErrorModel
        medium = Medium(sim, FixedLoss(50.0))
        tx_radio = Radio("t", medium, DOT11B, Position(0, 0, 0))
        rx_radio = Radio("r", medium, DOT11B, Position(3, 0, 0),
                         error_model=FixedPerErrorModel(per=0.5))
        tx = DcfMac(sim, tx_radio, allocate_address(),
                    rate_factory=fixed_rate_factory("DSSS-1"))
        rx = DcfMac(sim, rx_radio, allocate_address(),
                    rate_factory=fixed_rate_factory("DSSS-1"))
        received = []
        from repro.mac.dcf import MacListener

        class Sink(MacListener):
            def mac_receive(self, s, d, p, m):
                received.append(p)

        rx.listener = Sink()
        for index in range(20):
            tx.send(rx.address, bytes([index]))
        sim.run(until=5.0)
        assert rx.counters.get("rx_corrupt") > 0
        assert len(received) == 20  # retries recovered everything
