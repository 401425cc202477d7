"""E5 — Fig 1.5: UWB rate vs distance and the regulatory allocations.

Reproduces the text's §2.1 UWB claims: "data transfer over 110 Mbps up
to 480 Mbps at distances up to few meters", the US (3.1-10.6 GHz) vs
Europe (3.4-4.8 + 6-8.5 GHz) allocations, and the wireless-USB-class
bulk-transfer use case.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.core.units import mbps, to_mbps
from repro.wpan.uwb import EUROPE, USA, UwbLink

DISTANCES_M = [0.5, 1, 2, 3, 4, 6, 8, 10, 12, 15]


def sweep(domain, seed=1):
    sim = Simulator(seed=seed)
    rows = []
    for distance in DISTANCES_M:
        link = UwbLink(sim, Position(0, 0, 0), Position(distance, 0, 0),
                       domain=domain)
        rate = link.rate_bps()
        transfer_s = (link.transfer_time(100_000_000)
                      if rate > 0 else None)
        rows.append([distance, to_mbps(rate), link.snr_db(), transfer_s])
    return rows


def test_fig_uwb(record_result):
    us_rows = sweep(USA)
    text = render_table(
        "E5: UWB rate vs distance, US allocation (Fig 1.5)",
        ["distance m", "rate Mb/s", "SNR dB", "100MB transfer s"],
        us_rows, formats=[None, ".1f", ".1f", ".2f"])
    record_result("E5_uwb", text)

    by_distance = {row[0]: row[1] for row in us_rows}
    # The text's profile: 480 close in, >= 110 out to ~10 m, dead beyond.
    assert by_distance[2] == 480.0
    assert by_distance[10] >= 110.0
    assert by_distance[15] < 110.0
    # Monotone decline.
    rates = [row[1] for row in us_rows]
    assert rates == sorted(rates, reverse=True)
    # Cable-replacement: a 100 MB file at 2 m in single-digit seconds.
    transfer_at_2m = [row[3] for row in us_rows if row[0] == 2][0]
    assert transfer_at_2m < 5.0


def test_uwb_regulatory_domains(record_result):
    sim = Simulator(seed=2)
    rows = []
    for domain in (USA, EUROPE):
        link = UwbLink(sim, Position(0, 0, 0), Position(2, 0, 0),
                       domain=domain)
        rows.append([domain.name, domain.total_bandwidth_hz / 1e9,
                     to_mbps(link.rate_bps()),
                     link.max_range_for_rate(mbps(110.0))])
    text = render_table(
        "E5b: UWB regulatory allocations (text §2.1)",
        ["domain", "allocation GHz", "rate @2m Mb/s", "110Mb/s range m"],
        rows, formats=[None, ".1f", ".0f", ".1f"])
    record_result("E5b_uwb_domains", text)
    us, europe = rows
    assert us[1] == pytest.approx(7.5)
    assert europe[1] == pytest.approx(3.9)
    # Both regions sustain the headline rates at 2 m.
    assert us[2] == europe[2] == 480
