"""E13 — power-save mode ablation (a design-choice bench).

The §4.2 Power Management machinery (PM bit, AP buffering, TIM,
PS-Poll, More Data) exists to trade **downlink latency for battery
life**.  This bench measures both sides of the trade on the same BSS:

* energy: mean radio power of an idle associated station, PS off vs on,
* latency: AP-to-station delivery delay for sporadic downlink traffic
  (PS adds up to a beacon interval of buffering delay),
* throughput sanity: the PS station still gets every frame.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.core.energy import EnergyMeter
from repro.mac.addresses import reset_allocator
from repro.net.ap import AccessPoint, TU_SECONDS
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G

MEASURE_WINDOW = 4.0
DOWNLINK_FRAMES = 12


def run_mode(power_save, seed=5):
    reset_allocator()  # backoff streams are keyed by address: rows apart
    sim = Simulator(seed=seed)
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid="psnet")
    sta = Station(sim, medium, DOT11G, Position(10, 0, 0), name="sta")
    ap.start_beaconing()
    sta.associate("psnet")
    sim.run(until=2.0)
    assert sta.associated
    if power_save:
        sta.enable_power_save()
        sim.run(until=2.5)

    meter = EnergyMeter(sim)
    meter.attach(sta.radio)
    start = sim.now
    # Sporadic downlink: one frame every ~330 ms.
    sent_at = {}
    delays = []

    def on_receive(source, payload, meta):
        delays.append(sim.now - sent_at[payload])

    sta.on_receive(on_receive)
    for index in range(DOWNLINK_FRAMES):
        payload = bytes([index]) * 50

        def send(p=payload):
            sent_at[p] = sim.now
            ap.send_to_station(sta.address, p)

        sim.schedule(0.1 + index * 0.33, send)
    sim.run(until=start + MEASURE_WINDOW)
    return {
        "mean_power_w": meter.mean_power_watts(since_start=start),
        "sleep_fraction": meter.seconds_in("sleep") / MEASURE_WINDOW,
        "delivered": len(delays),
        "mean_delay_ms": sum(delays) / max(len(delays), 1) * 1e3,
        "max_delay_ms": max(delays, default=0.0) * 1e3,
    }


def test_power_save_tradeoff(record_result):
    results = {"PS off": run_mode(False), "PS on": run_mode(True)}
    rows = [[name,
             result["mean_power_w"] * 1e3,
             result["sleep_fraction"],
             result["delivered"],
             result["mean_delay_ms"],
             result["max_delay_ms"]]
            for name, result in results.items()]
    text = render_table(
        "E13: power-save ablation (idle-ish station, sporadic downlink)",
        ["mode", "mean power mW", "sleep fraction", "delivered",
         "mean delay ms", "max delay ms"],
        rows, formats=[None, ".1f", ".2f", None, ".2f", ".2f"])
    beacon_ms = 100 * TU_SECONDS * 1e3
    text += (f"\n\nBeacon interval: {beacon_ms:.1f} ms — the PS latency "
             "ceiling (frames wait for the next TIM at worst).")
    record_result("E13_power_save", text)

    off, on = results["PS off"], results["PS on"]
    # Both modes deliver everything.
    assert off["delivered"] == on["delivered"] == DOWNLINK_FRAMES
    # PS slashes mean power by at least 3x...
    assert on["mean_power_w"] < off["mean_power_w"] / 3
    assert on["sleep_fraction"] > 0.7
    # ...and pays with delivery latency, bounded by the beacon interval.
    assert on["mean_delay_ms"] > off["mean_delay_ms"] * 5
    assert on["max_delay_ms"] < beacon_ms * 1.5
