"""Tests for the WirelessDevice base plumbing."""

from repro.core import Position
from repro.mac.addresses import MacAddress
from repro.net.device import WirelessDevice
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B


def pair(sim):
    medium = Medium(sim, FixedLoss(50.0))
    a = WirelessDevice(sim, medium, DOT11B, Position(0, 0, 0), name="a")
    b = WirelessDevice(sim, medium, DOT11B, Position(5, 0, 0), name="b")
    return a, b


class TestWirelessDevice:
    def test_auto_allocated_address_and_name(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        device = WirelessDevice(sim, medium, DOT11B, Position(0, 0, 0))
        assert device.address.is_locally_administered
        assert str(device.address) in device.name

    def test_explicit_address(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        address = MacAddress.from_string("02:aa:bb:cc:dd:ee")
        device = WirelessDevice(sim, medium, DOT11B, Position(0, 0, 0),
                                address=address)
        assert device.address == address
        assert device.mac.address == address

    def test_receive_hook_called(self, sim):
        a, b = pair(sim)
        inbox = []
        b.on_receive(lambda src, payload, meta: inbox.append((src, payload)))
        a.mac.send(b.address, b"direct")
        sim.run(until=0.5)
        assert inbox == [(a.address, b"direct")]

    def test_tx_complete_hook_called(self, sim):
        a, b = pair(sim)
        outcomes = []
        a.on_tx_complete(lambda msdu, ok: outcomes.append(ok))
        a.mac.send(b.address, b"x")
        sim.run(until=0.5)
        assert outcomes == [True]

    def test_multiple_receive_hooks_and_unsubscribe(self, sim):
        """Several subscribers coexist (an app sink plus a forwarding
        engine); unsubscribing removes exactly one of them."""
        a, b = pair(sim)
        first, second = [], []
        unsubscribe = b.on_receive(lambda src, p, m: first.append(p))
        b.on_receive(lambda src, p, m: second.append(p))
        a.mac.send(b.address, b"one")
        sim.run(until=0.5)
        assert first == [b"one"] and second == [b"one"]
        unsubscribe()
        unsubscribe()  # idempotent
        a.mac.send(b.address, b"two")
        sim.run(until=1.0)
        assert first == [b"one"] and second == [b"one", b"two"]

    def test_position_proxies_radio(self, sim):
        a, _ = pair(sim)
        a.position = Position(9, 9, 0)
        assert a.radio.position == Position(9, 9, 0)

    def test_frames_for_others_not_delivered_up(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        a = WirelessDevice(sim, medium, DOT11B, Position(0, 0, 0))
        b = WirelessDevice(sim, medium, DOT11B, Position(5, 0, 0))
        c = WirelessDevice(sim, medium, DOT11B, Position(2, 0, 0))
        inbox_c = []
        c.on_receive(lambda src, p, m: inbox_c.append(p))
        a.mac.send(b.address, b"for b only")
        sim.run(until=0.5)
        assert inbox_c == []
