"""E7 — Fig 1.7: a WiMAX base station serving a metropolitan area.

Reproduced claims from §2.3:

* "can transfer around 70 Mbps ... from a single base station" — the
  aggregate across subscribers approaches the channel peak,
* "over a distance of 50 km" — coverage extends to tens of km,
* "to thousands of users" — capacity is *divided* (scheduled), not
  fought over: per-subscriber throughput scales as 1/N with no loss,
* the two bands: 2-11 GHz works non-line-of-sight; 10-66 GHz requires
  line of sight but serves km-scale tower links.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.wman.wimax import (
    SubscriberStation,
    WimaxBand,
    WimaxBaseStation,
)

HORIZON = 2.0


def run_cell(subscriber_count, max_distance_m=20_000.0, seed=1):
    sim = Simulator(seed=seed)
    bs = WimaxBaseStation(sim, Position(0, 0, 0))
    subscribers = []
    for index in range(subscriber_count):
        distance = max_distance_m * (index + 1) / subscriber_count
        ss = SubscriberStation(f"ss{index}", Position(distance, 0, 0))
        bs.attach(ss)
        ss.offer_downlink(1_000_000_000)
        subscribers.append(ss)
    bs.start()
    sim.run(until=HORIZON)
    rates = [ss.delivered_bytes * 8 / HORIZON for ss in subscribers]
    return sum(rates), min(rates), max(rates)


def run_sweep():
    rows = []
    for count in (1, 2, 5, 10, 20, 50):
        aggregate, low, high = run_cell(count)
        rows.append([count, aggregate / 1e6, low / 1e6, high / 1e6])
    return rows


def test_fig_wimax_subscriber_sweep(record_result):
    rows = run_sweep()
    text = render_table(
        "E7: WiMAX point-to-multipoint cell (Fig 1.7), saturated downlink",
        ["subscribers", "aggregate Mb/s", "min SS Mb/s", "max SS Mb/s"],
        rows, formats=[None, ".1f", ".2f", ".2f"])
    record_result("E7_wimax", text)

    aggregates = [row[1] for row in rows]
    # The single near subscriber sees most of the DL share of ~70 Mb/s...
    assert aggregates[0] > 25.0
    # ...and the aggregate never exceeds the channel peak.
    sim = Simulator(seed=9)
    peak = WimaxBaseStation(sim, Position(0, 0, 0)).peak_rate_bps() / 1e6
    assert all(aggregate <= peak for aggregate in aggregates)
    # Scheduled MAC: adding subscribers must NOT collapse the aggregate
    # (contrast with CSMA contention collapse in E10).
    assert min(aggregates) > 0.5 * max(aggregates)
    # Per-subscriber share shrinks roughly as 1/N.
    assert rows[-1][3] < rows[0][3] / 10


def test_fig_wimax_bands(record_result):
    """LOS vs NLOS band behaviour (§2.3)."""
    sim = Simulator(seed=3)
    nlos_bs = WimaxBaseStation(sim, Position(0, 0, 0), band=WimaxBand.NLOS)
    los_bs = WimaxBaseStation(sim, Position(0, 0, 0), band=WimaxBand.LOS)
    rows = []
    for distance in (1_000.0, 5_000.0, 20_000.0, 40_000.0):
        nlos_probe = SubscriberStation("p", Position(distance, 0, 0))
        los_probe = SubscriberStation("p", Position(distance, 0, 0),
                                      line_of_sight=True)
        nlos_profile = nlos_bs.link_profile(nlos_probe)
        los_profile = los_bs.link_profile(los_probe)
        rows.append([distance / 1e3,
                     nlos_profile[0] if nlos_profile else "no link",
                     los_profile[0] if los_profile else "no link"])
    nlos_range, los_range = nlos_bs.max_range_m(), los_bs.max_range_m()
    text = render_table(
        "E7b: WiMAX bands: 2-11 GHz NLOS vs 10-66 GHz LOS (text §2.3)",
        ["distance km", "NLOS profile", "LOS profile"], rows)
    text += (f"\n\nNLOS coverage: {nlos_range / 1e3:.0f} km; "
             f"LOS coverage: {los_range / 1e3:.0f} km")
    record_result("E7b_wimax_bands", text)
    # Both bands close their link budget at km scale.
    assert nlos_range > 20_000
    assert los_range > 2_000
