"""Validation: simulated DCF saturation throughput vs the Bianchi model.

This is the credibility check for experiment E10 — the simulated MAC,
run to saturation, should land near the analytic prediction computed
from the *same* timing constants.
"""

import pytest

from repro.analysis.metrics import bianchi_saturation_throughput
from repro.core import Position, Simulator
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.traffic import DeliveryCounter, SaturatingSource


def run_saturation(n, payload_bytes=800, horizon=4.0, seed=5):
    sim = Simulator(seed=seed)
    medium = Medium(sim, FixedLoss(50.0))
    receiver_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0))
    receiver = DcfMac(sim, receiver_radio, allocate_address(),
                      rate_factory=fixed_rate_factory("CCK-11"))
    counter = receiver.listener = DeliveryCounter()
    payload = bytes(payload_bytes)
    for index in range(n):
        radio = Radio(f"tx{index}", medium, DOT11B,
                      Position(1.0 + index * 0.1, 0, 0))
        mac = DcfMac(sim, radio, allocate_address(),
                     rate_factory=fixed_rate_factory("CCK-11"))
        mac.listener = SaturatingSource(mac, receiver.address, payload)
    warmup = 0.5
    sim.run(until=warmup)
    counter.bytes = 0
    sim.run(until=warmup + horizon)
    return counter.bytes * 8 / horizon


class TestDcfMatchesBianchi:
    @pytest.mark.slow
    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_saturation_throughput_tracks_the_model(self, n):
        simulated = run_saturation(n)
        analytic = bianchi_saturation_throughput(
            n, DOT11B, payload_bytes=800, data_rate_bps=11e6)
        # The model idealizes (no EIFS, slotted collisions, ...): agree
        # within 25%.
        assert simulated == pytest.approx(analytic, rel=0.25)

    @pytest.mark.slow
    def test_throughput_declines_with_contention(self):
        sparse = run_saturation(2)
        crowded = run_saturation(12)
        assert crowded < sparse
