"""Tests for the scenario builders."""

import pytest

from repro import scenarios
from repro.core.errors import ConfigurationError, SimulationError
from repro.phy.standards import DOT11A


class TestInfrastructureBuilder:
    def test_builds_and_associates(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=3)
        assert len(bss.stations) == 3
        assert all(sta.associated for sta in bss.stations)
        assert bss.ap.station_count == 3

    def test_standard_is_configurable(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 standard=DOT11A)
        assert bss.ap.radio.standard is DOT11A
        assert bss.stations[0].radio.standard is DOT11A

    def test_zero_stations(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=0)
        assert bss.stations == []

    def test_no_associate_option(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 associate=False)
        assert not any(sta.associated for sta in bss.stations)

    def test_association_timeout_raises(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 radius_m=100_000.0,
                                                 associate=False)
        with pytest.raises(SimulationError, match="failed to associate"):
            scenarios.associate_all(sim, bss.stations, timeout=1.0)

    def test_timeout_error_names_the_stuck_stations(self, sim):
        from repro.core.errors import AssociationTimeoutError
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 associate=False)
        bss.ap.crash()   # dead AP: everyone stays stuck scanning
        for station in bss.stations:
            station.associate(bss.ap.ssid)
        with pytest.raises(AssociationTimeoutError) as excinfo:
            scenarios.associate_all(sim, bss.stations, timeout=1.0)
        message = str(excinfo.value)
        assert "2 of 2 stations failed to associate" in message
        for station in bss.stations:
            assert station.name in message
        assert "(scanning)" in message
        assert excinfo.value.stations == bss.stations

    def test_associate_all_returns_at_association_time(self, sim):
        """Event-driven associate_all stops the instant the last station
        associates instead of stepping to the next polling boundary."""
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 associate=False)
        last_association = []
        for station in bss.stations:
            station.on_associated(
                lambda _bssid: last_association.append(sim.now))
        scenarios.associate_all(sim, bss.stations, timeout=10.0)
        assert all(sta.associated for sta in bss.stations)
        assert sim.now == last_association[-1]

    def test_associate_all_noop_when_already_associated(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1)
        before = sim.now
        scenarios.associate_all(sim, bss.stations, timeout=5.0)
        assert sim.now == before

    def test_stale_hooks_never_stop_a_later_run(self, sim):
        """A station that associates *after* associate_all timed out
        must not sim.stop() the caller's next run via the stale hook."""
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 associate=False)
        # Make association impossible for now by detuning the scan.
        station = bss.stations[0]
        with pytest.raises(SimulationError, match="failed to associate"):
            scenarios.associate_all(sim, [station], timeout=0.01)
        # The station associates later, on its own schedule.
        sim.run(until=sim.now + 5.0)
        assert station.associated
        # The stale hook fired during that run; it must not have
        # stopped it short of the requested horizon.
        target = sim.now + 1.0
        assert sim.run(until=target) == target

    def test_mid_wait_disassociation_does_not_fail_with_budget_left(
            self, sim):
        """A station associated at call time that churns mid-wait must
        keep the wait alive until it re-associates — not turn into a
        hard SimulationError while timeout budget remains."""
        from repro.core.topology import Position
        from repro.net.station import Station
        bss = scenarios.build_infrastructure_bss(sim, station_count=1)
        churner = bss.stations[0]
        assert churner.associated
        late = Station(sim, bss.medium, bss.ap.radio.standard,
                       Position(5, 0, 0), name="late")
        # Mid-wait, the AP kicks the already-associated station; it
        # rescans and rejoins on its own schedule.
        sim.schedule(0.05, lambda: bss.ap.deauthenticate(churner.address))
        late.associate(bss.ap.ssid)
        scenarios.associate_all(sim, [churner, late], timeout=10.0)
        assert churner.associated and late.associated

    def test_associate_all_waits_out_a_transient_disassociation(self, sim):
        """Even when the *last* association event fires while another
        station is down, completion is judged on current state."""
        bss = scenarios.build_infrastructure_bss(sim, station_count=2)
        churner = bss.stations[0]
        sim.schedule(0.02, lambda: bss.ap.deauthenticate(churner.address))
        scenarios.associate_all(sim, bss.stations, timeout=10.0)
        assert all(sta.associated for sta in bss.stations)


class TestHiddenTerminalBuilder:
    def test_senders_are_mutually_hidden(self, sim):
        scenario = scenarios.build_hidden_terminal(sim)
        a_to_b = scenario.medium.link_rx_power_dbm(
            scenario.sender_a.radio, scenario.sender_b.radio)
        assert a_to_b == float("-inf")

    def test_both_senders_reach_the_receiver(self, sim):
        scenario = scenarios.build_hidden_terminal(sim)
        for sender in (scenario.sender_a, scenario.sender_b):
            power = scenario.medium.link_rx_power_dbm(
                sender.radio, scenario.receiver.radio)
            assert power > -80.0


class TestMeshTopologies:
    def test_chain_topology_spacing(self):
        positions = scenarios.chain_topology(5, 25.0)
        assert [p.x for p in positions] == [0.0, 25.0, 50.0, 75.0, 100.0]
        assert all(p.y == 0.0 and p.z == 0.0 for p in positions)

    def test_chain_topology_needs_two_nodes(self):
        with pytest.raises(ConfigurationError):
            scenarios.chain_topology(1, 10.0)

    def test_grid_topology_placement(self):
        positions = scenarios.grid_topology(2, 3, 10.0)
        assert len(positions) == 6
        assert (positions[0].x, positions[0].y) == (0.0, 0.0)
        assert (positions[2].x, positions[2].y) == (20.0, 0.0)   # row 0
        assert (positions[5].x, positions[5].y) == (20.0, 10.0)  # row 1
        # Grid pitch: nearest neighbors are exactly `spacing` apart.
        assert positions[0].distance_to(positions[1]) == 10.0
        assert positions[0].distance_to(positions[3]) == 10.0

    def test_grid_topology_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            scenarios.grid_topology(0, 3, 10.0)

    def test_build_mesh_network_wires_one_ibss(self, sim):
        from repro.routing import StaticRouting
        mesh = scenarios.build_mesh_network(
            sim, scenarios.chain_topology(3, 30.0), StaticRouting,
            range_m=40.0)
        assert len(mesh.nodes) == 3
        bssids = {node.station.mac.bssid for node in mesh.nodes}
        assert bssids == {mesh.ibss.bssid}
        # Adjacent nodes hear each other; the ends do not.
        assert mesh.medium.link_rx_power_dbm(
            mesh.nodes[0].station.radio,
            mesh.nodes[1].station.radio) > -90.0
        assert mesh.medium.link_rx_power_dbm(
            mesh.nodes[0].station.radio,
            mesh.nodes[2].station.radio) == float("-inf")


class TestEssBuilder:
    def test_aps_in_a_line_sharing_the_ds(self, sim):
        scenario = scenarios.build_ess(sim, ap_count=3, spacing_m=50.0)
        positions = [ap.position.x for ap in scenario.aps]
        assert positions == [0.0, 50.0, 100.0]
        assert all(ap.ds is scenario.ess.ds for ap in scenario.aps)

    def test_beacons_are_staggered(self, sim):
        scenario = scenarios.build_ess(sim, ap_count=2)
        sim.run(until=0.5)
        beacons = [ap.ap_counters.get("beacons") for ap in scenario.aps]
        assert all(count > 0 for count in beacons)
