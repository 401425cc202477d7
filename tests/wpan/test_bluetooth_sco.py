"""Tests for Bluetooth SCO voice links (the headset use case)."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, ProtocolError
from repro.wpan.bluetooth import (
    BluetoothDevice,
    HV3,
    Piconet,
)


def piconet_with_headset(sim):
    phone = BluetoothDevice("phone", Position(0, 0, 0))
    piconet = Piconet(sim, phone)
    headset = BluetoothDevice("headset", Position(0.5, 0, 0))
    piconet.add_slave(headset)
    return phone, piconet, headset


class TestScoLink:
    def test_voice_rate_is_64kbps(self, sim):
        _, piconet, _ = piconet_with_headset(sim)
        assert piconet.sco_rate_bps == pytest.approx(64_000.0)

    def test_voice_flows_both_ways(self, sim):
        phone, piconet, headset = piconet_with_headset(sim)
        piconet.add_sco_link(headset)
        piconet.start()
        horizon = 2.0
        sim.run(until=horizon)
        for device in (phone, headset):
            voice_rate = device.counters.get("voice_bytes") * 8 / horizon
            assert voice_rate == pytest.approx(64_000.0, rel=0.05)

    def test_sco_requires_membership(self, sim):
        _, piconet, _ = piconet_with_headset(sim)
        stranger = BluetoothDevice("stranger", Position(1, 0, 0))
        with pytest.raises(ProtocolError):
            piconet.add_sco_link(stranger)

    def test_one_sco_link_per_piconet(self, sim):
        _, piconet, headset = piconet_with_headset(sim)
        second = BluetoothDevice("second", Position(1, 0, 0))
        piconet.add_slave(second)
        piconet.add_sco_link(headset)
        with pytest.raises(ConfigurationError):
            piconet.add_sco_link(second)

    def test_voice_steals_a_third_of_data_capacity(self, sim):
        """An HV3 link reserves every third slot pair, so ACL data
        throughput drops to ~2/3 of the data-only rate."""
        phone, piconet, headset = piconet_with_headset(sim)
        laptop = BluetoothDevice("laptop", Position(1, 0, 0))
        piconet.add_slave(laptop)
        piconet.add_sco_link(headset)
        piconet.start()
        piconet.queue_payload(laptop, bytes(1_000_000))
        horizon = 4.0
        sim.run(until=horizon)
        data_rate = laptop.counters.get("rx_bytes") * 8 / horizon
        data_only = piconet.max_asymmetric_rate_bps()
        assert data_rate == pytest.approx(data_only * 2 / 3, rel=0.1)

    def test_remove_sco_restores_capacity(self, sim):
        phone, piconet, headset = piconet_with_headset(sim)
        piconet.add_sco_link(headset)
        piconet.remove_sco_link(headset)
        piconet.start()
        piconet.queue_payload(headset, bytes(1_000_000))
        horizon = 3.0
        sim.run(until=horizon)
        data_rate = headset.counters.get("rx_bytes") * 8 / horizon
        assert data_rate == pytest.approx(
            piconet.max_asymmetric_rate_bps(), rel=0.05)

    def test_voice_continues_without_data_traffic(self, sim):
        _, piconet, headset = piconet_with_headset(sim)
        piconet.add_sco_link(headset)
        piconet.start()
        sim.run(until=1.0)
        assert piconet.counters.get("sco_pairs") > 200  # ~267 per second
