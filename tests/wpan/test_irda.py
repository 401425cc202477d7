"""Tests for IrDA point-to-point links."""

import math

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, LinkError
from repro.core.units import kbps, mbps
from repro.wpan.irda import IrdaDevice, IrdaLink


def facing_pair(distance=0.5, a_rate=mbps(4.0), b_rate=mbps(4.0)):
    a = IrdaDevice("a", Position(0, 0, 0), facing_rad=0.0,
                   max_rate_bps=a_rate)
    b = IrdaDevice("b", Position(distance, 0, 0), facing_rad=math.pi,
                   max_rate_bps=b_rate)
    return a, b


class TestGeometry:
    def test_facing_devices_connect(self, sim):
        a, b = facing_pair()
        link = IrdaLink(sim, a, b)
        assert link.distance == pytest.approx(0.5)

    def test_beyond_one_meter_fails(self, sim):
        a, b = facing_pair(distance=1.2)
        with pytest.raises(LinkError, match="range"):
            IrdaLink(sim, a, b)

    def test_misaligned_cone_fails(self, sim):
        a = IrdaDevice("a", Position(0, 0, 0), facing_rad=0.0)
        # b faces the same way as a (pointing away from it).
        b = IrdaDevice("b", Position(0.5, 0, 0), facing_rad=0.0)
        with pytest.raises(LinkError, match="cone"):
            IrdaLink(sim, a, b)

    def test_slightly_off_axis_within_cone(self, sim):
        # b sits 10 degrees off a's axis: inside the 15-degree half angle.
        angle = math.radians(10.0)
        b_position = Position(0.5 * math.cos(angle),
                              0.5 * math.sin(angle), 0)
        a = IrdaDevice("a", Position(0, 0, 0), facing_rad=0.0)
        b = IrdaDevice("b", b_position, facing_rad=angle + math.pi)
        IrdaLink(sim, a, b)  # should not raise

    def test_sees_respects_half_angle(self):
        a = IrdaDevice("a", Position(0, 0, 0), facing_rad=0.0)
        inside = IrdaDevice("in", Position(1, 0.1, 0), facing_rad=math.pi)
        outside = IrdaDevice("out", Position(0, 1, 0), facing_rad=-math.pi / 2)
        assert a.sees(inside)
        assert not a.sees(outside)


class TestRateNegotiation:
    def test_lowest_common_rate_wins(self, sim):
        a, b = facing_pair(a_rate=mbps(16.0), b_rate=kbps(115.2))
        link = IrdaLink(sim, a, b)
        assert link.rate_bps == kbps(115.2)

    def test_unsupported_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            IrdaDevice("x", Position(0, 0, 0), facing_rad=0.0,
                       max_rate_bps=12345.0)

    def test_discovery_runs_at_9600(self, sim):
        a, b = facing_pair()
        link = IrdaLink(sim, a, b)
        # 6 frames of 64 bytes at 9600 b/s = 0.32 s.
        assert link.discovery_time() == pytest.approx(0.32)


class TestTransfer:
    def test_transfer_time_scales_with_rate(self, sim):
        a_fast, b_fast = facing_pair(a_rate=mbps(16.0), b_rate=mbps(16.0))
        fast = IrdaLink(sim, a_fast, b_fast)
        a_slow, b_slow = facing_pair(a_rate=kbps(115.2), b_rate=kbps(115.2))
        slow = IrdaLink(sim, a_slow, b_slow)
        size = 100_000
        assert fast.transfer_time(size) < slow.transfer_time(size) / 100

    def test_transfer_completes_on_simulator(self, sim):
        a, b = facing_pair()
        link = IrdaLink(sim, a, b)
        done = []
        link.transfer(10_000, on_done=done.append)
        sim.run(until=10.0)
        assert done == [10_000]
        assert link.bytes_transferred == 10_000

    def test_transfers_serialize_on_the_link(self, sim):
        a, b = facing_pair()
        link = IrdaLink(sim, a, b)
        first_done = link.transfer(10_000)
        second_done = link.transfer(10_000)
        assert second_done > first_done

    def test_negative_size_rejected(self, sim):
        a, b = facing_pair()
        link = IrdaLink(sim, a, b)
        with pytest.raises(ConfigurationError):
            link.transfer_time(-1)
