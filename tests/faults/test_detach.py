"""Medium.detach: removing a radio from every fan-out surface.

Satellite regression: a compiled fan-out plan must not keep delivering
to a receiver that has since been detached (the plan pre-resolves the
receiver's bound upcalls, so stale plans would raise or deliver energy
to a corpse).
"""

import pytest

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import ConfigurationError
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio, RadioState
from repro.traffic import DeliveryCounter

A = Position(0, 0, 0)
B = Position(10, 0, 0)

KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


def _pair(sim):
    medium = Medium(sim, FixedLoss(50.0))
    tx_radio = Radio("tx", medium, DOT11B, A)
    tx = DcfMac(sim, tx_radio, allocate_address())
    rx_radio = Radio("rx", medium, DOT11B, B)
    rx = DcfMac(sim, rx_radio, allocate_address())
    counter = DeliveryCounter()
    rx.listener = counter
    return medium, tx, rx, counter


class TestDetach:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_transmit_with_plan_compiled_against_dead_receiver(self, kernel):
        sim = Simulator(seed=3, kernel=kernel)
        medium, tx, rx, counter = _pair(sim)
        tx.send(rx.address, bytes(200))
        sim.run(until=0.05)
        assert counter.frames == 1          # plan is compiled and warm
        medium.detach(rx.radio)
        tx.send(rx.address, bytes(200))
        sim.run(until=0.5)
        # The retransmissions burn out against silence; nothing reaches
        # the detached radio and nothing raises.
        assert counter.frames == 1
        assert not rx.radio._arrivals
        assert tx.counters.get("retry_fail") >= 1 or \
            tx.counters.get("drops_retry") >= 1 or tx.idle

    def test_detach_clears_compiled_plans(self):
        sim = Simulator(seed=3)
        medium, tx, rx, counter = _pair(sim)
        tx.send(rx.address, bytes(200))
        sim.run(until=0.05)
        assert medium._plans
        medium.detach(rx.radio)
        assert not medium._plans
        assert not medium._by_channel

    def test_detach_unknown_radio_raises(self):
        sim = Simulator(seed=3)
        medium, tx, rx, counter = _pair(sim)
        medium.detach(rx.radio)
        with pytest.raises(ConfigurationError):
            medium.detach(rx.radio)

    def test_reattach_restores_delivery(self):
        sim = Simulator(seed=3)
        medium, tx, rx, counter = _pair(sim)
        tx.send(rx.address, bytes(200))
        sim.run(until=0.05)
        medium.detach(rx.radio)
        sim.run(until=0.1)
        medium.attach(rx.radio)
        tx.send(rx.address, bytes(200))
        sim.run(until=0.6)
        assert counter.frames == 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_inflight_arrival_drains_after_detach(self, kernel):
        """Detaching mid-reception: the arrival edges already in the
        heap still fire and the energy drains to exactly zero."""
        sim = Simulator(seed=3, kernel=kernel)
        medium, tx, rx, counter = _pair(sim)
        tx.send(rx.address, bytes(1500))
        sim.run(until=0.0007)               # mid-burst (see crash_drain)
        assert tx.radio.state is RadioState.TX
        assert rx.radio.total_incident_power_watts() > 0.0
        medium.detach(rx.radio)
        sim.run(until=0.5)
        assert not rx.radio._arrivals
        assert rx.radio.cca_busy() is False
