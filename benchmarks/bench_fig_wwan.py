"""E8 — Fig 1.8 / §2.4: cellular generations, frequency reuse, handoff,
and the satellite alternative.

Reproduced claims:

* the generation ladder 1G (2.4 kb/s) ... 4G (1 Gb/s),
* "low-power transmitters to allow frequency reuse at much smaller
  distances": total session capacity grows with tighter reuse,
* a mobile crossing cells keeps its session through handoff,
* satellite: global coverage bought with a quarter-second of one-way
  latency — window-limited protocols collapse long before the channel
  rate (DVB-S2, ~60 Mb/s).
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.mobility.models import LinearMobility
from repro.wwan.cellular import CellularNetwork, GENERATIONS, MobileDevice
from repro.wwan.satellite import (
    DVBS2_RATE_BPS,
    GeoSatellite,
    GroundStation,
    SatelliteLink,
)


def run_generation_ladder():
    rows = []
    for name in ("1G", "2G", "2.5G", "3G", "3.5G", "4G"):
        sim = Simulator(seed=1)
        network = CellularNetwork(sim, name, rings=1)
        mobile = MobileDevice(sim, network, "phone", Position(0, 0, 0))
        mobile.start_session()
        generation = GENERATIONS[name]
        rows.append([name, generation.year, generation.description,
                     mobile.current_rate_bps() / 1e3])
    return rows


def run_reuse_comparison():
    rows = []
    for reuse in (1, 3, 7):
        sim = Simulator(seed=2)
        network = CellularNetwork(sim, "3G", rings=2, total_channels=84,
                                  reuse_factor=reuse)
        rows.append([reuse, network.channels_per_cell,
                     network.total_capacity_sessions()])
    return rows


def run_drive_test(seed=3):
    """Drive across three cells; the session must survive via handoffs."""
    sim = Simulator(seed=seed)
    network = CellularNetwork(sim, "4G", rings=2, cell_radius_m=1000.0)
    mobile = MobileDevice(sim, network, "car", Position(-3000, 0, 0),
                          reevaluate_every=0.5)
    assert mobile.start_session()
    mobility = LinearMobility(sim, mobile, Position(3000, 0, 0),
                              speed_mps=30.0, tick=0.25)
    mobility.start()
    sim.run(until=220.0)
    return mobile


def run_satellite_profile():
    sim = Simulator(seed=4)
    satellite = GeoSatellite("bird", 0.0)
    link = SatelliteLink(
        sim, satellite,
        GroundStation("hq", Position(0, 0, 0)),
        GroundStation("island", Position(2_000_000, 0, 0)))
    rows = []
    for window_kib in (16, 64, 256, 1024, 8192):
        throughput = link.window_limited_throughput_bps(window_kib * 1024)
        rows.append([window_kib, throughput / 1e6])
    return link.rtt(), rows


def test_fig_wwan_generations(record_result):
    rows = run_generation_ladder()
    text = render_table(
        "E8: Cellular generations (text §2.4)",
        ["generation", "year", "description", "measured kb/s"],
        rows, formats=[None, None, None, ".1f"])
    record_result("E8_generations", text)
    rates = [row[3] for row in rows]
    assert rates == sorted(rates)
    assert rates[0] == pytest.approx(2.4)
    assert rates[-1] == pytest.approx(1e6)  # 1 Gb/s in kb/s


def test_fig_wwan_reuse_and_handoff(record_result):
    reuse_rows, mobile = run_reuse_comparison(), run_drive_test()
    text = render_table(
        "E8b: Frequency reuse capacity (19 cells, 84 channels)",
        ["reuse factor", "channels/cell", "total sessions"],
        reuse_rows)
    text += ("\n\nDrive test (6 km at 30 m/s across 1 km cells): "
             f"handoffs={mobile.counters.get('handoffs')}, "
             f"dropped={mobile.counters.get('dropped')}, "
             f"still in session={mobile.in_session}")
    record_result("E8b_reuse_handoff", text)
    capacities = [row[2] for row in reuse_rows]
    assert capacities == sorted(capacities, reverse=True)
    assert capacities[0] == 7 * capacities[2]
    assert mobile.in_session
    assert mobile.counters.get("handoffs") >= 2
    assert mobile.counters.get("dropped") == 0


def test_fig_wwan_satellite(record_result):
    rtt, rows = run_satellite_profile()
    text = render_table(
        "E8c: GEO satellite link: window-limited throughput vs RTT "
        f"(RTT = {rtt * 1e3:.0f} ms, channel = "
        f"{DVBS2_RATE_BPS / 1e6:.0f} Mb/s)",
        ["window KiB", "throughput Mb/s"], rows,
        formats=[None, ".2f"])
    record_result("E8c_satellite", text)
    assert 0.45 < rtt < 0.55
    throughputs = [row[1] for row in rows]
    assert throughputs == sorted(throughputs)
    assert throughputs[0] < 1.0          # 16 KiB window: under 1 Mb/s
    assert throughputs[-1] == pytest.approx(DVBS2_RATE_BPS / 1e6)
