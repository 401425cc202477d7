"""Mesh metrics: connectivity, hop optimality, per-link accounting."""

import math

import pytest

from repro import scenarios
from repro.analysis.mesh import (
    aggregate_mesh_counters,
    connectivity_graph,
    path_stretch,
    per_link_load,
    shortest_hop_count,
)
from repro.core.topology import Position
from repro.routing import StaticRouting
from repro.traffic.generators import encode_packet
from repro.traffic.sink import TrafficSink


class TestConnectivityGraph:
    def test_chain_adjacency_is_nearest_neighbor_only(self):
        positions = scenarios.chain_topology(5, 30.0)
        graph = connectivity_graph(positions, range_m=40.0)
        assert graph[0] == [1]
        assert graph[2] == [1, 3]
        assert graph[4] == [3]

    def test_grid_range_between_pitch_and_diagonal_gives_4_neighbors(self):
        positions = scenarios.grid_topology(3, 3, 30.0)
        graph = connectivity_graph(positions, range_m=40.0)
        assert sorted(graph[4]) == [1, 3, 5, 7]    # center: N/S/E/W only
        assert sorted(graph[0]) == [1, 3]          # corner

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            connectivity_graph([Position(0, 0, 0)], range_m=0.0)


class TestShortestHops:
    def test_chain_distance(self):
        graph = connectivity_graph(scenarios.chain_topology(6, 30.0), 40.0)
        assert shortest_hop_count(graph, 0, 5) == 5
        assert shortest_hop_count(graph, 0, 0) == 0

    def test_disconnected_is_none(self):
        positions = [Position(0, 0, 0), Position(1000.0, 0, 0)]
        graph = connectivity_graph(positions, 40.0)
        assert shortest_hop_count(graph, 0, 1) is None

    def test_grid_manhattan_distance(self):
        graph = connectivity_graph(scenarios.grid_topology(3, 3, 30.0), 40.0)
        assert shortest_hop_count(graph, 0, 8) == 4

    def test_path_stretch(self):
        assert path_stretch(4.0, 4) == 1.0
        assert path_stretch(6.0, 4) == 1.5
        with pytest.raises(ValueError):
            path_stretch(3.0, 0)


class TestFleetAccounting:
    @pytest.fixture
    def ran_chain(self, sim):
        mesh = scenarios.build_mesh_network(
            sim, scenarios.chain_topology(4, 30.0), StaticRouting,
            range_m=40.0)
        scenarios.install_chain_routes(mesh.nodes)
        sink = TrafficSink(sim)
        mesh.nodes[3].on_receive(sink)
        for sequence in range(5):
            mesh.nodes[0].send(mesh.nodes[3].address,
                               encode_packet(1, sequence, sim.now, 100))
        sim.run(until=1.0)
        assert sink.total_received == 5
        return mesh

    def test_aggregate_counters_sum_the_fleet(self, ran_chain):
        total = aggregate_mesh_counters(ran_chain.nodes)
        assert total.get("originated") == 5
        assert total.get("forwarded") == 10     # two relays x five packets
        assert total.get("delivered") == 5

    def test_per_link_load_follows_the_chain(self, ran_chain):
        load = per_link_load(ran_chain.nodes)
        forward_links = {key for key in load if key[0].startswith("mesh")}
        assert len(forward_links) == 3          # 0->1, 1->2, 2->3
        for counter in load.values():
            assert counter.get("frames") == 5
            assert counter.get("failures") == 0

    def test_hop_histogram_counts_deliveries(self, ran_chain):
        hops = [h for node in ran_chain.nodes
                for h in node.hop_counts.samples]
        assert {h: hops.count(h) for h in hops} == {3: 5}

    def test_stretch_of_the_chain_is_optimal(self, ran_chain):
        graph = connectivity_graph(
            [node.station.position for node in ran_chain.nodes], 40.0)
        shortest = shortest_hop_count(graph, 0, 3)
        actual = ran_chain.nodes[3].hop_counts.mean
        assert math.isclose(path_stretch(actual, shortest), 1.0)
