"""Tests for the Bluetooth piconet/scatternet substrate."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, ProtocolError
from repro.wpan.bluetooth import (
    BluetoothDevice,
    DH1,
    DH5,
    DeviceClass,
    MAX_ACTIVE_SLAVES,
    Piconet,
    ScatternetBridge,
)


def piconet_with_slaves(sim, count, packet_type=DH5, spacing=1.0):
    master = BluetoothDevice("master", Position(0, 0, 0))
    piconet = Piconet(sim, master, packet_type=packet_type)
    slaves = []
    for index in range(count):
        slave = BluetoothDevice(f"slave{index}",
                                Position(spacing * (index + 1), 0, 0))
        piconet.add_slave(slave)
        slaves.append(slave)
    return master, piconet, slaves


class TestMembership:
    def test_at_most_seven_active_slaves(self, sim):
        _, piconet, _ = piconet_with_slaves(sim, MAX_ACTIVE_SLAVES)
        extra = BluetoothDevice("extra", Position(1, 1, 0))
        with pytest.raises(ConfigurationError):
            piconet.add_slave(extra)

    def test_master_not_slave_of_itself(self, sim):
        master, piconet, _ = piconet_with_slaves(sim, 1)
        with pytest.raises(ConfigurationError):
            piconet.add_slave(master)

    def test_slave_to_slave_requires_master_relay(self, sim):
        _, piconet, (s0, s1) = piconet_with_slaves(sim, 2)
        with pytest.raises(ProtocolError):
            piconet.send(s0, s1, b"direct is not allowed")

    def test_foreign_device_cannot_send(self, sim):
        _, piconet, _ = piconet_with_slaves(sim, 1)
        stranger = BluetoothDevice("stranger", Position(0, 1, 0))
        with pytest.raises(ProtocolError):
            piconet.send(stranger, piconet.master, b"x")


class TestCapacity:
    def test_dh5_peak_rate_matches_the_720kbps_figure(self, sim):
        _, piconet, _ = piconet_with_slaves(sim, 1)
        # DH5+POLL pair: 339 bytes / 6 slots of 625 us ~ 723 kb/s.
        assert piconet.max_asymmetric_rate_bps() == \
            pytest.approx(723_000, rel=0.01)

    def test_single_slave_throughput_near_peak(self, sim):
        _, piconet, (slave,) = piconet_with_slaves(sim, 1)
        piconet.start()
        # Queue more than the link can move in the horizon: stay saturated.
        piconet.queue_payload(slave, bytes(1_000_000))
        sim.run(until=6.0)
        rate = slave.counters.get("rx_bytes") * 8 / 6.0
        assert rate == pytest.approx(piconet.max_asymmetric_rate_bps(),
                                     rel=0.05)

    def test_capacity_shared_among_slaves(self, sim):
        _, piconet, slaves = piconet_with_slaves(sim, 7)
        piconet.start()
        for slave in slaves:
            piconet.queue_payload(slave, bytes(200_000))
        sim.run(until=4.0)
        received = [slave.counters.get("rx_bytes") for slave in slaves]
        # Round-robin polling: everyone gets a near-equal share.
        assert max(received) - min(received) <= DH5.payload_bytes * 2
        total_rate = sum(received) * 8 / 4.0
        assert total_rate == pytest.approx(
            piconet.max_asymmetric_rate_bps(), rel=0.05)

    def test_uplink_direction(self, sim):
        master, piconet, (slave,) = piconet_with_slaves(sim, 1)
        piconet.start()
        for _ in range(50):
            piconet.send(slave, master, bytes(DH5.payload_bytes))
        sim.run(until=2.0)
        assert master.counters.get("rx_bytes") == 50 * DH5.payload_bytes

    def test_dh1_is_slower_than_dh5(self, sim):
        _, piconet1, _ = piconet_with_slaves(sim, 1, packet_type=DH1)
        _, piconet5, _ = piconet_with_slaves(sim, 1, packet_type=DH5)
        assert piconet1.max_asymmetric_rate_bps() < \
            piconet5.max_asymmetric_rate_bps()


class TestRange:
    def test_out_of_range_slave_gets_nothing(self, sim):
        master, piconet, _ = piconet_with_slaves(sim, 1)
        far = BluetoothDevice("far", Position(50, 0, 0),
                              device_class=DeviceClass.CLASS2)  # 10 m range
        piconet.add_slave(far)
        piconet.start()
        piconet.queue_payload(far, bytes(10_000))
        sim.run(until=2.0)
        assert far.counters.get("rx_bytes") == 0
        assert piconet.counters.get("downlink_misses") > 0

    def test_class1_reaches_100m(self, sim):
        master = BluetoothDevice("m", Position(0, 0, 0),
                                 device_class=DeviceClass.CLASS1)
        piconet = Piconet(sim, master)
        far = BluetoothDevice("f", Position(90, 0, 0),
                              device_class=DeviceClass.CLASS1)
        piconet.add_slave(far)
        piconet.start()
        piconet.queue_payload(far, bytes(1000))
        sim.run(until=1.0)
        assert far.counters.get("rx_bytes") == 1000


class TestScatternet:
    def test_bridge_relays_between_piconets(self, sim):
        """Fig 1.2: the master of piconet A is a slave in piconet B."""
        # Piconet A: masterA + bridge (bridge is a slave of A).
        master_a = BluetoothDevice("masterA", Position(0, 0, 0))
        piconet_a = Piconet(sim, master_a)
        bridge = BluetoothDevice("bridge", Position(5, 0, 0))
        piconet_a.add_slave(bridge)
        # Piconet B: the bridge is the master, with one slave.
        piconet_b = Piconet(sim, bridge)
        slave_b = BluetoothDevice("slaveB", Position(10, 0, 0))
        piconet_b.add_slave(slave_b)

        relay = ScatternetBridge(sim, bridge, piconet_a, piconet_b)
        relay.add_route("masterA", via=piconet_b, destination=slave_b)

        piconet_a.start()
        piconet_b.start()
        chunks = 60
        piconet_a.queue_payload(bridge, bytes(chunks * DH5.payload_bytes))
        sim.run(until=10.0)
        assert relay.relayed > 0
        assert slave_b.counters.get("rx_bytes") == \
            chunks * DH5.payload_bytes

    def test_bridge_membership_enforced(self, sim):
        master_a = BluetoothDevice("mA", Position(0, 0, 0))
        piconet_a = Piconet(sim, master_a)
        master_b = BluetoothDevice("mB", Position(5, 0, 0))
        piconet_b = Piconet(sim, master_b)
        outsider = BluetoothDevice("outsider", Position(1, 0, 0))
        with pytest.raises(ConfigurationError):
            ScatternetBridge(sim, outsider, piconet_a, piconet_b)

    def test_scatternet_relay_slower_than_direct(self, sim):
        """The bridge halves its presence, so relayed throughput is below
        the single-piconet rate — the scatternet trade-off."""
        master_a = BluetoothDevice("masterA", Position(0, 0, 0))
        piconet_a = Piconet(sim, master_a)
        bridge = BluetoothDevice("bridge", Position(5, 0, 0))
        piconet_a.add_slave(bridge)
        piconet_b = Piconet(sim, bridge)
        slave_b = BluetoothDevice("slaveB", Position(10, 0, 0))
        piconet_b.add_slave(slave_b)
        ScatternetBridge(sim, bridge, piconet_a, piconet_b)\
            .add_route("masterA", via=piconet_b, destination=slave_b)
        piconet_a.start()
        piconet_b.start()
        piconet_a.queue_payload(bridge, bytes(500_000))
        horizon = 6.0
        sim.run(until=horizon)
        relayed_rate = slave_b.counters.get("rx_bytes") * 8 / horizon
        assert 0 < relayed_rate < piconet_a.max_asymmetric_rate_bps()
