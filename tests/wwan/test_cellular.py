"""Tests for the cellular substrate."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError, ProtocolError
from repro.core.units import gbps, kbps, mbps
from repro.wwan.cellular import (
    CellularNetwork,
    GENERATIONS,
    MobileDevice,
)


class TestGenerations:
    """The §2.4 generation ladder as data."""

    def test_rates_match_the_text(self):
        assert GENERATIONS["1G"].peak_rate_bps == kbps(2.4)
        assert GENERATIONS["2G"].peak_rate_bps == kbps(64)
        assert GENERATIONS["2.5G"].peak_rate_bps == kbps(144)
        assert GENERATIONS["3G"].peak_rate_bps == mbps(2)
        assert GENERATIONS["3.5G"].peak_rate_bps == mbps(14)
        assert GENERATIONS["4G"].peak_rate_bps == gbps(1)

    def test_each_generation_faster_than_the_last(self):
        ordered = ["1G", "2G", "2.5G", "3G", "3.5G", "4G"]
        rates = [GENERATIONS[name].peak_rate_bps for name in ordered]
        assert rates == sorted(rates)

    def test_unknown_generation_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            CellularNetwork(sim, "6G")


class TestFrequencyReuse:
    def test_cell_count_matches_rings(self, sim):
        network = CellularNetwork(sim, "3G", rings=2)
        assert len(network.cells) == 19

    def test_reuse_multiplies_capacity(self, sim):
        """Smaller reuse factor -> more channels per cell -> more
        simultaneous sessions across the deployment."""
        aggressive = CellularNetwork(sim, "3G", rings=1, total_channels=70,
                                     reuse_factor=1)
        conservative = CellularNetwork(sim, "3G", rings=1, total_channels=70,
                                       reuse_factor=7)
        assert aggressive.total_capacity_sessions() == \
            7 * conservative.total_capacity_sessions()

    def test_invalid_reuse_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            CellularNetwork(sim, "3G", reuse_factor=5)

    def test_adjacent_cells_use_different_groups(self, sim):
        network = CellularNetwork(sim, "3G", rings=1, reuse_factor=7)
        groups = [cell.channel_group for cell in network.cells]
        assert len(set(groups)) == 7


class TestSessions:
    def test_session_lifecycle(self, sim):
        network = CellularNetwork(sim, "4G", rings=1)
        mobile = MobileDevice(sim, network, "phone", Position(0, 0, 0))
        assert mobile.start_session()
        assert mobile.in_session
        assert mobile.current_rate_bps() == gbps(1)
        mobile.end_session()
        assert not mobile.in_session
        assert mobile.current_rate_bps() == 0.0

    def test_double_session_rejected(self, sim):
        network = CellularNetwork(sim, "4G", rings=1)
        mobile = MobileDevice(sim, network, "phone", Position(0, 0, 0))
        mobile.start_session()
        with pytest.raises(ProtocolError):
            mobile.start_session()

    def test_blocking_when_cell_full(self, sim):
        network = CellularNetwork(sim, "3G", rings=0, total_channels=3,
                                  reuse_factor=3)  # 1 channel, 1 cell
        first = MobileDevice(sim, network, "m1", Position(0, 0, 0))
        second = MobileDevice(sim, network, "m2", Position(1, 0, 0))
        assert first.start_session()
        assert not second.start_session()
        assert second.counters.get("blocked") == 1

    def test_rate_shared_among_cell_users(self, sim):
        network = CellularNetwork(sim, "3G", rings=0, total_channels=12,
                                  reuse_factor=3)
        mobiles = [MobileDevice(sim, network, f"m{i}", Position(0, 0, 0))
                   for i in range(4)]
        for mobile in mobiles:
            assert mobile.start_session()
        assert mobiles[0].current_rate_bps() == \
            pytest.approx(mbps(2) / 4)


class TestHandoff:
    def test_moving_mobile_hands_off(self, sim):
        network = CellularNetwork(sim, "4G", rings=1,
                                  cell_radius_m=1000.0)
        mobile = MobileDevice(sim, network, "car", Position(0, 0, 0),
                              reevaluate_every=0.5)
        mobile.start_session()
        origin_cell = mobile.serving
        # Jump next to a neighbour site.
        neighbour = network.cells[1]
        mobile.position = neighbour.center
        sim.run(until=1.0)
        assert mobile.serving is neighbour
        assert mobile.serving is not origin_cell
        assert mobile.counters.get("handoffs") == 1
        assert mobile.in_session  # continuity preserved

    def test_handoff_to_full_cell_drops(self, sim):
        network = CellularNetwork(sim, "3G", rings=1, total_channels=7,
                                  reuse_factor=7, cell_radius_m=1000.0)
        # Fill the neighbour cell first.
        neighbour = network.cells[1]
        squatter = MobileDevice(sim, network, "squatter", neighbour.center)
        assert squatter.start_session()
        mover = MobileDevice(sim, network, "mover", Position(0, 0, 0),
                             reevaluate_every=0.5)
        assert mover.start_session()
        mover.position = neighbour.center
        sim.run(until=1.0)
        assert not mover.in_session
        assert mover.counters.get("dropped") == 1

    def test_stationary_mobile_never_hands_off(self, sim):
        network = CellularNetwork(sim, "4G", rings=1)
        mobile = MobileDevice(sim, network, "desk", Position(10, 10, 0),
                              reevaluate_every=0.2)
        mobile.start_session()
        sim.run(until=5.0)
        assert mobile.counters.get("handoffs") == 0
