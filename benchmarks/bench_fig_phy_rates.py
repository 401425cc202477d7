"""E2 — Fig 1.13 / §4.3: the PHY rate ladders and automatic rate
step-down ("it will automatically back down from 54 Mbps when the radio
signal is weak").

For every 802.11 family member, sweep the link distance and report the
fastest usable mode at each point (ideal SNR-driven selection over a
log-distance indoor channel).  The series must step down through
exactly the rate ladder the text lists, monotonically.
"""

import pytest

from repro.analysis.tables import render_series, render_table
from repro.core.topology import Position
from repro.core.units import to_mbps
from repro.phy.propagation import LogDistance
from repro.phy.standards import STANDARDS

DISTANCES_M = [1, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300]
FAMILY = ["802.11", "802.11b", "802.11a", "802.11g", "802.11n", "802.11ac"]


def rate_at(standard, model, distance):
    loss = model.path_loss_db(Position(0, 0, 0), Position(distance, 0, 0))
    rx_dbm = standard.default_tx_power_dbm - loss
    snr_db = rx_dbm - standard.noise_floor_dbm
    mode = standard.best_mode_for_snr(snr_db)
    return mode.data_rate_bps if mode is not None else 0.0


def sweep_all():
    series = {}
    for name in FAMILY:
        standard = STANDARDS[name]
        model = LogDistance(standard.band_hz, exponent=3.0)
        series[name] = [rate_at(standard, model, d) for d in DISTANCES_M]
    return series


def test_fig_phy_rates(record_result):
    series = sweep_all()
    points = []
    for index, distance in enumerate(DISTANCES_M):
        points.append([distance] + [to_mbps(series[name][index])
                                    for name in FAMILY])
    text = render_series(
        "E2: PHY rate vs distance (Fig 1.13 rate ladders, ideal selection)",
        "distance_m", FAMILY, points,
        formats=[None] + [".1f"] * len(FAMILY))
    record_result("E2_phy_rates", text)

    for name in FAMILY:
        standard = STANDARDS[name]
        rates = series[name]
        # Monotone step-down with distance.
        assert rates == sorted(rates, reverse=True), name
        # Close in, the top of the ladder; every used rate is a ladder rate.
        assert rates[0] == standard.max_rate_bps, name
        ladder = {mode.data_rate_bps for mode in standard.modes} | {0.0}
        assert all(rate in ladder for rate in rates), name
    # The text's §4.3 relationships hold in the sweep:
    # 802.11b tops at 11, a/g at 54 on their ladder.
    assert to_mbps(max(series["802.11b"])) == 11.0
    assert to_mbps(max(series["802.11a"])) == 54.0
    assert to_mbps(max(series["802.11g"])) == 54.0
    # 5 GHz decays faster than 2.4 GHz: at mid distances g >= a ladder-wise.
    mid = DISTANCES_M.index(75)
    assert series["802.11g"][mid] >= series["802.11a"][mid]
