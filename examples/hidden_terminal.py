#!/usr/bin/env python3
"""The hidden-terminal problem, and RTS/CTS solving it.

Two laptops on opposite sides of a building cannot hear each other but
both reach the file server between them.  With basic CSMA/CA their
transmissions collide at the server relentlessly; enabling RTS/CTS
reserves the medium through the server's CTS (which both can hear) and
restores throughput.

Run:  python examples/hidden_terminal.py
"""

from repro import Simulator, scenarios
from repro.mac.dcf import DcfConfig
from repro.traffic import DeliveryCounter, SaturatingSource

def run(rts_threshold: int, label: str) -> float:
    sim = Simulator(seed=11)
    scenario = scenarios.build_hidden_terminal(
        sim, mac_config=DcfConfig(rts_threshold_bytes=rts_threshold))
    a_hears_b = scenario.medium.link_rx_power_dbm(
        scenario.sender_a.radio, scenario.sender_b.radio)
    received = DeliveryCounter()
    scenario.receiver.on_receive(received)
    for sender in (scenario.sender_a, scenario.sender_b):
        # Keeps the sender's queue non-empty: saturation traffic.
        sender.on_tx_complete(SaturatingSource(
            sender.mac, scenario.receiver.address, bytes(800), depth=3))
    horizon = 4.0
    sim.run(until=horizon)
    goodput = received.bytes * 8 / horizon
    drops = (scenario.sender_a.mac.counters.get("msdu_dropped")
             + scenario.sender_b.mac.counters.get("msdu_dropped"))
    print(f"{label:>14}: {goodput / 1e3:7.0f} kb/s, "
          f"{drops:3d} frames dropped at the retry limit "
          f"(sender A hears sender B at {a_hears_b} dBm)")
    return goodput


def main() -> None:
    print("two saturated senders, hidden from each other, one receiver:\n")
    basic = run(rts_threshold=2347, label="basic access")
    rts = run(rts_threshold=256, label="RTS/CTS")
    print(f"\nRTS/CTS recovers {rts / basic:.2f}x the basic-access "
          "goodput in this topology")


if __name__ == "__main__":
    main()
