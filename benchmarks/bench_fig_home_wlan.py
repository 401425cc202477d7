"""E6 — Fig 1.6: the home WLAN.

A domestic infrastructure BSS: one AP, several stations at realistic
in-home distances, everyone associated over the real management
exchanges, mixed uplink traffic.

Reproduced claims:

* an 802.11g BSS outperforms an 802.11b BSS severalfold (§2.2: 54 vs
  11 Mb/s link rates),
* b/g coexistence: 802.11g "will use the same 2.4-GHz band that
  802.11b uses" — a legacy 802.11b transmitter on the channel drags an
  802.11g network's throughput down (energy it cannot decode still
  jams the medium).
"""

import pytest

from repro import scenarios
from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.mac.dcf import DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.net.bss import IndependentBss
from repro.net.station import Station
from repro.phy.standards import DOT11B, DOT11G
from repro.traffic.generators import CbrSource
from repro.traffic.sink import TrafficSink

STATIONS = 3
HORIZON = 3.0


def run_home_bss(standard, seed=1, interferer=False):
    sim = Simulator(seed=seed)
    bss = scenarios.build_infrastructure_bss(
        sim, station_count=STATIONS, standard=standard, radius_m=12.0)
    sink = TrafficSink(sim)
    bss.ap.on_receive(sink)
    for station in bss.stations:
        CbrSource(sim, lambda p, s=station: s.send(bss.ap.address, p),
                  packet_bytes=1000, interval=0.004)
    if interferer:
        # A legacy 802.11b pair saturating the same channel.
        ibss = IndependentBss.start(sim)
        legacy_tx = Station(sim, bss.medium, DOT11B, Position(6, 6, 0),
                            name="legacy-tx", adhoc=True,
                            ibss_bssid=ibss.bssid,
                            rate_factory=fixed_rate_factory("DSSS-1"))
        legacy_rx = Station(sim, bss.medium, DOT11B, Position(7, 6, 0),
                            name="legacy-rx", adhoc=True,
                            ibss_bssid=ibss.bssid,
                            rate_factory=fixed_rate_factory("DSSS-1"))
        for station in (legacy_tx, legacy_rx):
            ibss.join(station)
        # The g radios cannot decode DSSS but must defer to its energy;
        # the b radios likewise defer to OFDM energy.
        CbrSource(sim, lambda p: legacy_tx.send(legacy_rx.address, p),
                  packet_bytes=1000, interval=0.006)
    start = sim.now
    sim.run(until=start + HORIZON)
    return sink.total_goodput_bps(HORIZON)


def test_fig_home_wlan(record_result):
    results = {
        "802.11b BSS": run_home_bss(DOT11B),
        "802.11g BSS": run_home_bss(DOT11G),
        "802.11g BSS + 802.11b interferer": run_home_bss(DOT11G,
                                                         interferer=True),
    }
    rows = [[name, goodput / 1e6]
            for name, goodput in results.items()]
    text = render_table(
        "E6: Home WLAN (Fig 1.6): 3 stations, uplink CBR to the AP",
        ["configuration", "aggregate goodput Mb/s"],
        rows, formats=[None, ".2f"])
    record_result("E6_home_wlan", text)

    b_rate = results["802.11b BSS"]
    g_rate = results["802.11g BSS"]
    g_jammed = results["802.11g BSS + 802.11b interferer"]
    # Offered load: 3 x 2 Mb/s = 6 Mb/s. The g BSS carries it all;
    # the b BSS cannot (11 Mb/s link rate minus MAC overhead < 6 Mb/s).
    assert g_rate > b_rate
    assert g_rate == pytest.approx(6e6, rel=0.05)
    assert b_rate < 5.7e6
    # Coexistence: the legacy transmitter costs the g network throughput.
    assert g_jammed < g_rate * 0.98
