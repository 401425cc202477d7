"""E3 — Fig 1.2: Bluetooth piconets and the scatternet.

Series 1: piconet aggregate and per-slave throughput as the number of
active slaves grows from 1 to the 7-slave maximum — the "up to 8 active
devices ... share up to 720 Kbps" claim.

Series 2: the scatternet relay of Fig 1.2 (the master of piconet A is a
slave in piconet B): end-to-end relayed throughput through the bridge,
compared against the single-piconet rate.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.core.units import to_mbps
from repro.wpan.bluetooth import (
    BluetoothDevice,
    DH5,
    Piconet,
    ScatternetBridge,
)

HORIZON = 4.0


def run_piconet(slave_count, seed=1):
    sim = Simulator(seed=seed)
    master = BluetoothDevice("m", Position(0, 0, 0))
    piconet = Piconet(sim, master)
    slaves = []
    for index in range(slave_count):
        slave = BluetoothDevice(f"s{index}", Position(1 + index, 0, 0))
        piconet.add_slave(slave)
        slaves.append(slave)
    piconet.start()
    for slave in slaves:
        piconet.queue_payload(slave, bytes(1_000_000))
    sim.run(until=HORIZON)
    per_slave = [slave.counters.get("rx_bytes") * 8 / HORIZON
                 for slave in slaves]
    return sum(per_slave), min(per_slave), max(per_slave)


def run_scatternet(seed=2):
    sim = Simulator(seed=seed)
    master_a = BluetoothDevice("masterA", Position(0, 0, 0))
    piconet_a = Piconet(sim, master_a)
    bridge = BluetoothDevice("bridge", Position(5, 0, 0))
    piconet_a.add_slave(bridge)
    piconet_b = Piconet(sim, bridge)  # bridge is master of B
    slave_b = BluetoothDevice("slaveB", Position(9, 0, 0))
    piconet_b.add_slave(slave_b)
    relay = ScatternetBridge(sim, bridge, piconet_a, piconet_b)
    relay.add_route("masterA", via=piconet_b, destination=slave_b)
    piconet_a.start()
    piconet_b.start()
    piconet_a.queue_payload(bridge, bytes(1_000_000))
    sim.run(until=HORIZON)
    return slave_b.counters.get("rx_bytes") * 8 / HORIZON


def run_experiment():
    piconet_rows = []
    for slaves in range(1, 8):
        total, low, high = run_piconet(slaves)
        piconet_rows.append([slaves, to_mbps(total) * 1000,
                             to_mbps(low) * 1000, to_mbps(high) * 1000])
    relay_rate = run_scatternet()
    return piconet_rows, relay_rate


def test_fig_bluetooth(record_result):
    piconet_rows, relay_rate = run_experiment()
    text = render_table(
        "E3: Bluetooth piconet capacity sharing (Fig 1.2)",
        ["active slaves", "aggregate kb/s", "min slave kb/s",
         "max slave kb/s"],
        piconet_rows, formats=[None, ".1f", ".1f", ".1f"])
    text += ("\n\nScatternet relay through the Fig 1.2 bridge: "
             f"{relay_rate / 1e3:.1f} kb/s "
             "(bridge time-shares between both piconets)")
    record_result("E3_bluetooth", text)

    # The ~720 kb/s shared-capacity claim: aggregate stays flat near
    # 720 kb/s whatever the slave count...
    for row in piconet_rows:
        assert row[1] == pytest.approx(720.0, rel=0.06), row
    # ...while the per-slave share shrinks roughly as 1/k.
    single = piconet_rows[0][2]
    seven = piconet_rows[6][2]
    assert seven == pytest.approx(single / 7.0, rel=0.15)
    # Fairness of pure round-robin polling.
    for row in piconet_rows:
        assert row[3] - row[2] < 25.0
    # The relay moves data, but below the single-piconet rate.
    assert 0 < relay_rate < 720_000
