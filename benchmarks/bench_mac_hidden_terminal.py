"""E11 — the hidden-terminal experiment: RTS/CTS earning its keep.

Two saturated senders sit outside each other's carrier-sense range but
both in range of the middle receiver (built on an exact disc
propagation model, so the hidden relationship is strict).  With basic
access their frames collide at the receiver relentlessly; with RTS/CTS
the short reservation frames collide instead and the CTS silences the
other sender via its NAV.

Second series: fragmentation as the §4.2 error-control knob — under a
harsh per-frame error floor, smaller fragments raise delivery.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.mac.dcf import DcfConfig
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.error_models import FixedPerErrorModel
from repro.scenarios import build_hidden_terminal
from repro.traffic import DeliveryCounter, SaturatingSource

HORIZON = 4.0

def run_hidden(rts_threshold, payload_bytes=2000, seed=11):
    sim = Simulator(seed=seed)
    config = DcfConfig(rts_threshold_bytes=rts_threshold)
    # Pin DSSS-2 for data: a collided 2000-byte frame then wastes ~8 ms
    # of air, dwarfing the ~1 ms RTS/CTS overhead — the classic regime
    # where reservation pays.  (DSSS-1 would mask collisions entirely
    # behind its Barker spreading gain; CCK-11 makes data frames so
    # short that the 1 Mb/s control overhead eats the gain.)
    scenario = build_hidden_terminal(
        sim, mac_config=config,
        rate_factory=fixed_rate_factory("DSSS-2"))
    received = DeliveryCounter()
    scenario.receiver.on_receive(received)
    payload = bytes(payload_bytes)
    for sender in (scenario.sender_a, scenario.sender_b):
        # Chain the source behind the device's own listener plumbing.
        sender.on_tx_complete(SaturatingSource(
            sender.mac, scenario.receiver.address, payload, depth=3))
    sim.run(until=HORIZON)
    drops = (scenario.sender_a.mac.counters.get("msdu_dropped")
             + scenario.sender_b.mac.counters.get("msdu_dropped"))
    timeouts = (scenario.sender_a.mac.counters.get("ack_timeouts")
                + scenario.sender_b.mac.counters.get("ack_timeouts")
                + scenario.sender_a.mac.counters.get("cts_timeouts")
                + scenario.sender_b.mac.counters.get("cts_timeouts"))
    return received.bytes * 8 / HORIZON, drops, timeouts


def run_comparison():
    basic = run_hidden(rts_threshold=2347)
    rts = run_hidden(rts_threshold=300)
    return basic, rts


def test_hidden_terminal_rts_rescue(benchmark, record_result):
    (basic, rts) = benchmark.pedantic(run_comparison, rounds=1,
                                      iterations=1)
    rows = [
        ["basic access", basic[0] / 1e3, basic[1], basic[2]],
        ["RTS/CTS", rts[0] / 1e3, rts[1], rts[2]],
    ]
    text = render_table(
        "E11: hidden terminals, 2 saturated senders "
        "(802.11b DSSS-2, 2000B)",
        ["access mode", "goodput kb/s", "MSDUs dropped",
         "response timeouts"],
        rows, formats=[None, ".0f", None, None])
    record_result("E11_hidden_terminal", text)

    # RTS/CTS must rescue throughput in the hidden-terminal topology:
    # collisions now cost a 20-byte RTS instead of an 8 ms data frame.
    assert rts[0] > basic[0] * 1.5
    # Retry-limit drops stay in the same ballpark (both modes lose RTS
    # or data races; what changes is the airtime each loss wastes).
    assert rts[1] < basic[1] * 2


def run_fragmentation_sweep():
    rows = []
    for threshold, label in ((2346, "off"), (1024, "1024"), (512, "512"),
                             (256, "256")):
        sim = Simulator(seed=13)
        config = DcfConfig(fragmentation_threshold_bytes=threshold,
                           short_retry_limit=4)
        # A clean (non-hidden) link with a harsh error floor that scales
        # with frame airtime via a fixed per-frame PER on full frames.
        from repro.mac.addresses import allocate_address
        from repro.mac.dcf import DcfMac
        from repro.phy.channel import Medium
        from repro.phy.propagation import FixedLoss
        from repro.phy.standards import DOT11B
        from repro.phy.transceiver import Radio

        medium = Medium(sim, FixedLoss(50.0))
        # PER grows with fragment size: model a burst-noise channel where
        # a 2000-byte frame almost always dies but a 256-byte one lives.
        def error_model_for(size):
            return FixedPerErrorModel(per=min(0.9, size / 2500.0))

        rx_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0),
                         error_model=error_model_for(threshold))
        rx = DcfMac(sim, rx_radio, allocate_address(), config=config,
                    rate_factory=fixed_rate_factory("CCK-11"))
        delivered = rx.listener = DeliveryCounter()
        tx_radio = Radio("tx", medium, DOT11B, Position(1, 0, 0))
        tx = DcfMac(sim, tx_radio, allocate_address(), config=config,
                    rate_factory=fixed_rate_factory("CCK-11"))
        attempts = 40
        for _ in range(attempts):
            tx.send(rx.address, bytes(2000))
        sim.run(until=20.0)
        rows.append([label, delivered.frames / attempts])
    return rows


def test_fragmentation_under_errors(benchmark, record_result):
    rows = benchmark.pedantic(run_fragmentation_sweep, rounds=1,
                              iterations=1)
    text = render_table(
        "E11b: fragmentation vs a size-dependent error floor "
        "(2000B MSDUs)",
        ["fragmentation threshold", "MSDU delivery ratio"],
        rows, formats=[None, ".2f"])
    record_result("E11b_fragmentation", text)
    ratios = [row[1] for row in rows]
    # Smaller fragments survive the bursty channel better.
    assert ratios[-1] > ratios[0]
    assert ratios[-1] > 0.9
