"""E12 — the driver-mechanism ablation: ARF vs AARF vs fixed rates vs
the SNR oracle.

Scenario 1 (mobile): a station walks away from its peer at 1.5 m/s
across the whole rate ladder; whatever the controller picks, the frames
either land or burn retries.  Good adaptation rides the ladder down.

Scenario 2 (static, good channel): the channel supports the top rate
forever.  Plain ARF keeps probing the (non-existent) next rate up and
pays a lost frame every threshold; AARF backs its probe rate off
exponentially.  The metric is retransmission overhead at equal goodput.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.mac.addresses import allocate_address
from repro.mac.dcf import DcfMac
from repro.mac.rate_adapt import Aarf, Arf, IdealSnr, fixed_rate_factory
from repro.mobility.models import LinearMobility
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11A
from repro.phy.transceiver import Radio
from repro.traffic import DeliveryCounter, SaturatingSource

CONTROLLERS = {
    "ARF": Arf,
    "AARF": Aarf,
    "ideal-SNR": lambda std: IdealSnr(std, margin_db=1.0),
    "fixed-54M": fixed_rate_factory("OFDM-54"),
    "fixed-24M": fixed_rate_factory("OFDM-24"),
    "fixed-6M": fixed_rate_factory("OFDM-6"),
}


def run_walk(controller_name, horizon=25.0, speed=1.5, seed=21):
    sim = Simulator(seed=seed)
    medium = Medium(sim, LogDistance(DOT11A.band_hz, exponent=3.2))
    factory = CONTROLLERS[controller_name]
    rx_radio = Radio("rx", medium, DOT11A, Position(0, 0, 0))
    rx = DcfMac(sim, rx_radio, allocate_address(), rate_factory=factory)
    counter = rx.listener = DeliveryCounter()
    tx_radio = Radio("tx", medium, DOT11A, Position(3, 0, 0))
    tx = DcfMac(sim, tx_radio, allocate_address(), rate_factory=factory)
    tx.listener = SaturatingSource(tx, rx.address, bytes(1000), depth=3)
    LinearMobility(sim, tx_radio, Position(3 + speed * horizon, 0, 0),
                   speed_mps=speed, tick=0.2).start()
    sim.run(until=horizon)
    goodput = counter.bytes * 8 / horizon
    retries = tx.counters.get("ack_timeouts")
    return goodput, retries, tx.counters.get("msdu_dropped")


def run_static(controller_name, horizon=6.0, seed=22):
    sim = Simulator(seed=seed)
    medium = Medium(sim, LogDistance(DOT11A.band_hz, exponent=3.0))
    factory = CONTROLLERS[controller_name]
    rx_radio = Radio("rx", medium, DOT11A, Position(0, 0, 0))
    rx = DcfMac(sim, rx_radio, allocate_address(), rate_factory=factory)
    counter = rx.listener = DeliveryCounter()
    # ~15 dB of SNR: OFDM-24 is stable, OFDM-36 is doomed — the channel
    # where ARF's periodic up-probes burn frames.
    tx_radio = Radio("tx", medium, DOT11A, Position(56.0, 0, 0))
    tx = DcfMac(sim, tx_radio, allocate_address(), rate_factory=factory)
    tx.listener = SaturatingSource(tx, rx.address, bytes(1000), depth=3)
    sim.run(until=horizon)
    goodput = counter.bytes * 8 / horizon
    retries = tx.counters.get("ack_timeouts")
    sent = tx.counters.get("tx_data")
    return goodput, retries, sent


def test_rate_adaptation_mobile(record_result):
    results = {name: run_walk(name) for name in (
        "ARF", "AARF", "ideal-SNR", "fixed-54M", "fixed-6M")}
    rows = [[name, goodput / 1e6, retries, dropped]
            for name, (goodput, retries, dropped) in results.items()]
    text = render_table(
        "E12: rate adaptation on a 37m walk-away (802.11a, 1000B frames)",
        ["controller", "goodput Mb/s", "retry timeouts", "MSDUs lost"],
        rows, formats=[None, ".2f", None, None])
    record_result("E12_rate_adaptation", text)

    goodputs = {name: result[0] for name, result in results.items()}
    # Adaptive controllers beat both fixed extremes over the whole walk.
    for adaptive in ("ARF", "AARF", "ideal-SNR"):
        assert goodputs[adaptive] > goodputs["fixed-6M"]
        assert goodputs[adaptive] > goodputs["fixed-54M"]
    # The oracle bounds the driver algorithms from above (with margin).
    assert goodputs["ideal-SNR"] >= 0.8 * max(goodputs["ARF"],
                                              goodputs["AARF"])
    # Pinning 54M across the walk loses frames once SNR collapses.
    assert results["fixed-54M"][2] > results["AARF"][2]


def test_rate_adaptation_static_probe_overhead(record_result):
    # fixed-24M is the omniscient choice for this channel; fixed-54M
    # would deliver nothing (54M needs 23 dB, the link has ~15).
    results = {name: run_static(name) for name in ("ARF", "AARF",
                                                   "fixed-24M")}
    rows = [[name, goodput / 1e6, retries, retries / max(sent, 1)]
            for name, (goodput, retries, sent) in results.items()]
    text = render_table(
        "E12b: probe overhead on a stable mid-ladder channel (ablation)",
        ["controller", "goodput Mb/s", "retry timeouts",
         "timeouts/frame"],
        rows, formats=[None, ".2f", None, ".4f"])
    record_result("E12b_probe_overhead", text)

    arf_timeouts = results["ARF"][1]
    aarf_timeouts = results["AARF"][1]
    # AARF's adaptive threshold suppresses most doomed up-probes.
    assert aarf_timeouts < arf_timeouts
    # And converts that into goodput over ARF.
    assert results["AARF"][0] > results["ARF"][0]
    # Both stay within reach of the omniscient fixed choice.
    assert results["AARF"][0] > 0.8 * results["fixed-24M"][0]
