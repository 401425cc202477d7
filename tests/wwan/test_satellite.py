"""Tests for the GEO satellite substrate."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, LinkError
from repro.wwan.satellite import (
    DVBS2_RATE_BPS,
    GEO_ALTITUDE_M,
    GeoSatellite,
    GroundStation,
    SatelliteLink,
)


def simple_link(sim, separation=1_000_000.0, transponders=24):
    satellite = GeoSatellite("bird", longitude_deg=0.0,
                             transponder_count=transponders)
    a = GroundStation("alpha", Position(0, 0, 0))
    b = GroundStation("beta", Position(separation, 0, 0))
    return SatelliteLink(sim, satellite, a, b), satellite


class TestGeometry:
    def test_one_way_delay_about_a_quarter_second(self, sim):
        link, _ = simple_link(sim)
        delay = link.one_way_delay(link.a, link.b)
        # Two ~36,000 km hops at light speed: 0.24 s give or take geometry.
        assert 0.23 < delay < 0.27

    def test_rtt_double_one_way(self, sim):
        link, _ = simple_link(sim)
        assert link.rtt() == pytest.approx(
            2 * link.one_way_delay(link.a, link.b), rel=0.01)

    def test_geo_altitude_constant(self):
        assert GEO_ALTITUDE_M == pytest.approx(35_786e3)


class TestTransponders:
    def test_leasing_and_exhaustion(self, sim):
        satellite = GeoSatellite("bird", 0.0, transponder_count=2)
        a = GroundStation("a", Position(0, 0, 0))
        b = GroundStation("b", Position(1, 0, 0))
        SatelliteLink(sim, satellite, a, b)
        SatelliteLink(sim, satellite, a, b)
        with pytest.raises(LinkError):
            SatelliteLink(sim, satellite, a, b)

    def test_close_releases_the_transponder(self, sim):
        satellite = GeoSatellite("bird", 0.0, transponder_count=1)
        a = GroundStation("a", Position(0, 0, 0))
        b = GroundStation("b", Position(1, 0, 0))
        link = SatelliteLink(sim, satellite, a, b)
        link.close()
        SatelliteLink(sim, satellite, a, b)  # should not raise

    def test_at_least_one_transponder(self):
        with pytest.raises(ConfigurationError):
            GeoSatellite("bird", 0.0, transponder_count=0)


class TestTransfers:
    def test_message_delivery_time(self, sim):
        link, _ = simple_link(sim)
        deliveries = []
        link.send("alpha", 1_000_000, on_delivered=deliveries.append)
        sim.run(until=2.0)
        assert len(deliveries) == 1
        serialization = 1_000_000 * 8 / DVBS2_RATE_BPS
        expected = serialization + link.one_way_delay(link.a, link.b)
        assert deliveries[0] == pytest.approx(expected, rel=0.01)

    def test_unknown_endpoint_rejected(self, sim):
        link, _ = simple_link(sim)
        with pytest.raises(LinkError):
            link.send("gamma", 100)

    def test_messages_serialize_per_sender(self, sim):
        link, _ = simple_link(sim)
        first = link.send("alpha", 1_000_000)
        second = link.send("alpha", 1_000_000)
        assert second > first


class TestWindowLimitedThroughput:
    def test_small_window_collapses_throughput(self, sim):
        link, _ = simple_link(sim)
        # A 64 KB stop-and-wait window over a ~0.48 s RTT: ~1 Mb/s.
        throughput = link.window_limited_throughput_bps(65536)
        assert throughput < 2e6
        assert throughput < DVBS2_RATE_BPS / 10

    def test_huge_window_reaches_channel_rate(self, sim):
        link, _ = simple_link(sim)
        assert link.window_limited_throughput_bps(1 << 30) == \
            DVBS2_RATE_BPS

    def test_throughput_monotone_in_window(self, sim):
        link, _ = simple_link(sim)
        values = [link.window_limited_throughput_bps(w)
                  for w in (1 << 14, 1 << 16, 1 << 20, 1 << 24)]
        assert values == sorted(values)

    def test_bad_window_rejected(self, sim):
        link, _ = simple_link(sim)
        with pytest.raises(ConfigurationError):
            link.window_limited_throughput_bps(0)
