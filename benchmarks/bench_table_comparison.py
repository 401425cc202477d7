"""E1 — the chapter 8 comparison table.

Regenerates, per technology: standard, band, nominal range, and maximum
bit rate — with the rate/range *measured* from the library's substrates
wherever a quick simulation can produce it, and the source text's value
alongside for comparison.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.core.units import to_mbps
from repro.phy.propagation import LogDistance, max_range_for_budget
from repro.phy.standards import STANDARDS
from repro.wman.wimax import WimaxBaseStation
from repro.wpan.bluetooth import BluetoothDevice, DeviceClass, Piconet
from repro.wpan.irda import IrdaDevice, IrdaLink, MAX_RANGE_M
from repro.wpan.uwb import UwbLink
from repro.wpan.zigbee import DATA_RATE_BPS as ZIGBEE_RATE
from repro.wwan.cellular import GENERATIONS
from repro.wwan.satellite import DVBS2_RATE_BPS, GEO_ALTITUDE_M
import math


def measure_bluetooth(seed=1):
    sim = Simulator(seed=seed)
    master = BluetoothDevice("m", Position(0, 0, 0))
    piconet = Piconet(sim, master)
    slave = BluetoothDevice("s", Position(5, 0, 0))
    piconet.add_slave(slave)
    piconet.start()
    piconet.queue_payload(slave, bytes(1_000_000))
    horizon = 4.0
    sim.run(until=horizon)
    rate = slave.counters.get("rx_bytes") * 8 / horizon
    return rate, DeviceClass.CLASS2.range_m


def measure_irda(seed=2):
    sim = Simulator(seed=seed)
    from repro.core.units import mbps
    a = IrdaDevice("a", Position(0, 0, 0), 0.0, max_rate_bps=mbps(16.0))
    b = IrdaDevice("b", Position(0.5, 0, 0), math.pi,
                   max_rate_bps=mbps(16.0))
    link = IrdaLink(sim, a, b)
    return link.rate_bps, MAX_RANGE_M


def measure_uwb(seed=3):
    sim = Simulator(seed=seed)
    link = UwbLink(sim, Position(0, 0, 0), Position(2, 0, 0))
    from repro.core.units import mbps
    return link.rate_bps(), link.max_range_for_rate(mbps(110.0))


def measure_wifi(standard_name):
    standard = STANDARDS[standard_name]
    model = LogDistance(standard.band_hz, exponent=3.0)
    usable_range = max_range_for_budget(
        model, standard.default_tx_power_dbm,
        standard.sensitivity_dbm(standard.modes[0]))
    return standard.max_rate_bps, usable_range


def measure_wimax(seed=4):
    sim = Simulator(seed=seed)
    bs = WimaxBaseStation(sim, Position(0, 0, 0))
    return bs.peak_rate_bps(), bs.max_range_m()


ROWS_SPEC = [
    # (type, name, standard label, text range, text max rate Mb/s)
    ("WPAN", "Bluetooth", "IEEE 802.15.1", "10 m", 0.72),
    ("WPAN", "IrDA", "IrDA", "1 m", 16.0),
    ("WPAN", "ZigBee", "IEEE 802.15.4", "10 m", 0.25),
    ("WPAN", "UWB", "IEEE 802.15.3", "10 m", 480.0),
    # The ch.8 table lists 1 Mb/s for legacy 802.11, contradicting the
    # text's own §4.3 ("the bit rate for the original IEEE 802.11
    # standard is 2 Mbps"); we reproduce the §4.3 figure.
    ("WLAN", "Wi-Fi", "IEEE 802.11", "100 m", 2.0),
    ("WLAN", "Wi-Fi", "IEEE 802.11a", "100 m", 54.0),
    ("WLAN", "Wi-Fi", "IEEE 802.11b", "100 m", 11.0),
    ("WLAN", "Wi-Fi", "IEEE 802.11g", "100 m", 54.0),
    ("WLAN", "Wi-Fi", "IEEE 802.11n", "250 m", 600.0),
    ("WLAN", "Wi-Fi", "IEEE 802.11ac", "250 m", 1300.0),
    ("WMAN", "WiMAX", "IEEE 802.16", "50 km", 70.0),
    ("WWAN", "Cellular", "AMPS..LTE", "> 50 km", 1000.0),
    ("WWAN", "Satellite", "DVB-S2", "> 50 km", 60.0),
]


def build_comparison_rows():
    rows = []
    bt_rate, bt_range = measure_bluetooth()
    ir_rate, ir_range = measure_irda()
    uwb_rate, uwb_range = measure_uwb()
    wimax_rate, wimax_range = measure_wimax()
    measured = {
        "Bluetooth": (to_mbps(bt_rate), f"{bt_range:.0f} m"),
        "IrDA": (to_mbps(ir_rate), f"{ir_range:.0f} m"),
        "ZigBee": (to_mbps(ZIGBEE_RATE), "30 m (configurable)"),
        "UWB": (to_mbps(uwb_rate), f"{uwb_range:.0f} m @110Mb/s"),
        "IEEE 802.16": (to_mbps(wimax_rate), f"{wimax_range / 1e3:.0f} km"),
        "AMPS..LTE": (to_mbps(GENERATIONS["4G"].peak_rate_bps),
                      "cell planning"),
        "DVB-S2": (to_mbps(DVBS2_RATE_BPS),
                   f"GEO ({GEO_ALTITUDE_M / 1e6:.0f} Mm)"),
    }
    for net_type, name, label, text_range, text_rate in ROWS_SPEC:
        if label.startswith("IEEE 802.11"):
            rate_bps, range_m = measure_wifi(label.replace("IEEE ", ""))
            measured_rate = to_mbps(rate_bps)
            measured_range = f"{range_m:.0f} m"
        elif name in measured:
            measured_rate, measured_range = measured[name]
        else:
            measured_rate, measured_range = measured[label]
        rows.append([net_type, name, label, text_range, measured_range,
                     text_rate, measured_rate])
    return rows


def test_table_comparison(record_result):
    rows = build_comparison_rows()
    text = render_table(
        "E1: Comparison of wireless network types (text ch.8 table)",
        ["type", "name", "standard", "range(text)", "range(measured)",
         "Mb/s(text)", "Mb/s(measured)"],
        rows, formats=[None, None, None, None, None, ".2f", ".2f"])
    record_result("E1_table_comparison", text)
    # Shape checks: measured peak rates within 15% of the text's figures.
    for row in rows:
        text_rate, measured_rate = row[5], row[6]
        assert measured_rate == pytest.approx(text_rate, rel=0.15), row
