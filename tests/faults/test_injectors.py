"""Link-degradation and queue-pressure injectors."""

import pytest

from repro.core import Position
from repro.faults import DegradedPropagation, LinkFader, inject_queue_pressure
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss, FreeSpace
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.traffic import DeliveryCounter

A = Position(0, 0, 0)
B = Position(10, 0, 0)


def _pair(sim, medium):
    """Two MACs in range of each other."""
    rx_radio = Radio("rx", medium, DOT11B, A)
    rx = DcfMac(sim, rx_radio, allocate_address())
    counter = DeliveryCounter()
    rx.listener = counter
    tx_radio = Radio("tx", medium, DOT11B, B)
    tx = DcfMac(sim, tx_radio, allocate_address())
    return tx, rx, counter


class TestDegradedPropagation:
    def test_transparent_with_no_fades(self):
        base = FreeSpace(2.4e9)
        wrapped = DegradedPropagation(base)
        assert wrapped.received_power_watts(0.1, A, B) == \
            base.received_power_watts(0.1, A, B)
        assert wrapped.path_loss_db(A, B) == base.path_loss_db(A, B)

    def test_fade_attenuates_both_directions(self):
        base = FreeSpace(2.4e9)
        wrapped = DegradedPropagation(base)
        wrapped._fades[A] = 20.0
        reference = base.received_power_watts(0.1, A, B)
        assert wrapped.received_power_watts(0.1, A, B) == \
            pytest.approx(reference * 0.01)
        assert wrapped.received_power_watts(0.1, B, A) == \
            pytest.approx(reference * 0.01)

    def test_fades_on_both_ends_add(self):
        base = FreeSpace(2.4e9)
        wrapped = DegradedPropagation(base)
        wrapped._fades[A] = 10.0
        wrapped._fades[B] = 10.0
        reference = base.received_power_watts(0.1, A, B)
        assert wrapped.received_power_watts(0.1, A, B) == \
            pytest.approx(reference * 0.01)

    def test_global_fade_hits_unfaded_links(self):
        base = FreeSpace(2.4e9)
        wrapped = DegradedPropagation(base)
        wrapped._global_db = 30.0
        reference = base.received_power_watts(0.1, A, B)
        assert wrapped.received_power_watts(0.1, A, B) == \
            pytest.approx(reference * 1e-3)


class TestLinkFader:
    def test_wrap_is_idempotent(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        fader_one = LinkFader(medium)
        fader_two = LinkFader(medium)
        assert fader_one.model is fader_two.model
        assert isinstance(medium.propagation, DegradedPropagation)
        assert fader_one.model.base is not medium.propagation

    def test_clear_restores_bit_exact_budget(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        before = medium.propagation.received_power_watts(0.1, A, B)
        fader = LinkFader(medium)
        fader.fade(A, 17.0)
        fader.clear(A)
        assert medium.propagation.received_power_watts(0.1, A, B) == before

    def test_fade_kills_delivery_and_clear_restores(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx, rx, counter = _pair(sim, medium)
        fader = LinkFader(medium)
        payload = bytes(200)
        tx.send(rx.address, payload)
        sim.run(until=0.05)
        assert counter.frames == 1
        # 120 dB on top of the 50 dB path: far below the reception floor.
        fader.fade(B, 120.0)
        tx.send(rx.address, payload)
        sim.run(until=0.3)
        assert counter.frames == 1
        fader.clear(B)
        tx.send(rx.address, payload)
        sim.run(until=0.6)
        assert counter.frames == 2

    def test_active_fades_bookkeeping(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        fader = LinkFader(medium)
        assert fader.active_fades == 0
        fader.fade(A, 10.0)
        fader.fade_all(3.0)
        assert fader.active_fades == 2
        fader.clear_all()
        assert fader.active_fades == 0


class TestQueuePressure:
    def test_fills_to_capacity(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx, rx, _ = _pair(sim, medium)
        added = inject_queue_pressure(tx, destination=rx.address)
        # The MAC immediately dequeues one MSDU to contend with, so the
        # queue itself holds capacity already-pending frames only after
        # the head-of-line grab.
        assert added >= tx.queue.capacity
        assert tx.queue.full

    def test_partial_fill(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx, rx, _ = _pair(sim, medium)
        inject_queue_pressure(tx, fill=0.5, destination=rx.address)
        assert len(tx.queue) >= int(tx.queue.capacity * 0.5)
        assert not tx.queue.full

    def test_flood_is_real_traffic(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        tx, rx, counter = _pair(sim, medium)
        added = inject_queue_pressure(tx, fill=0.2, destination=rx.address)
        sim.run(until=2.0)
        # The junk frames contend and deliver: the victim really worked.
        assert counter.frames >= added
