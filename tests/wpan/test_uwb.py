"""Tests for the UWB link model (Fig 1.5 behaviour)."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, LinkError
from repro.core.units import mbps
from repro.wpan.uwb import EUROPE, USA, UwbLink


def link_at(sim, distance, domain=USA):
    return UwbLink(sim, Position(0, 0, 0), Position(distance, 0, 0),
                   domain=domain)


class TestRegulatoryDomains:
    def test_us_allocation(self):
        assert USA.total_bandwidth_hz == pytest.approx(7.5e9)

    def test_europe_is_split_and_smaller(self):
        assert len(EUROPE.bands_hz) == 2
        assert EUROPE.total_bandwidth_hz < USA.total_bandwidth_hz

    def test_channel_cannot_exceed_allocation(self, sim):
        with pytest.raises(ConfigurationError):
            UwbLink(sim, Position(0, 0, 0), Position(1, 0, 0),
                    domain=EUROPE, channel_bandwidth_hz=8e9)


class TestRateProfile:
    """The text's numbers: 480 Mb/s close in, 110 Mb/s out to ~10 m."""

    def test_480_at_two_meters(self, sim):
        assert link_at(sim, 2.0).rate_bps() == mbps(480)

    def test_110_or_better_at_ten_meters(self, sim):
        assert link_at(sim, 10.0).rate_bps() >= mbps(110)

    def test_dead_at_twenty_meters(self, sim):
        assert link_at(sim, 20.0).rate_bps() == 0.0

    def test_rate_monotone_in_distance(self, sim):
        rates = [link_at(sim, d).rate_bps()
                 for d in (0.5, 1, 2, 4, 6, 8, 10, 14)]
        assert rates == sorted(rates, reverse=True)

    def test_max_range_for_rate_inverts_profile(self, sim):
        link = link_at(sim, 1.0)
        range_480 = link.max_range_for_rate(mbps(480))
        range_110 = link.max_range_for_rate(mbps(110))
        assert 1.0 < range_480 < range_110
        assert link.rate_bps(range_110 * 0.99) >= mbps(110)
        assert link.rate_bps(range_110 * 1.05) < mbps(110)


class TestTransfer:
    def test_transfer_time_uses_current_rate(self, sim):
        close = link_at(sim, 1.0)
        far = link_at(sim, 9.0)
        assert close.transfer_time(10_000_000) < \
            far.transfer_time(10_000_000)

    def test_out_of_range_transfer_raises(self, sim):
        with pytest.raises(LinkError):
            link_at(sim, 30.0).transfer_time(1000)

    def test_transfer_completes(self, sim):
        link = link_at(sim, 2.0)
        done = []
        link.transfer(1_000_000, on_done=done.append)
        sim.run(until=1.0)
        assert done == [1_000_000]

    def test_usb2_class_transfer_speed(self, sim):
        """A 100 MB file at 2 m moves in a few seconds — cable-class."""
        link = link_at(sim, 2.0)
        assert link.transfer_time(100_000_000) < 3.0
