"""Tests for the ZigBee / 802.15.4 substrate."""

import sys

import pytest

from repro.core import Position, Simulator
from repro.core.errors import ConfigurationError
from repro.wpan.zigbee import (
    DeviceType,
    Topology,
    ZigbeeNode,
    ZigbeePan,
)


def star_pan(sim, device_count=4, radius=10.0):
    pan = ZigbeePan(sim, Topology.STAR, range_m=30.0)
    coordinator = pan.add_node(
        ZigbeeNode("coord", Position(0, 0, 0), DeviceType.COORDINATOR))
    devices = []
    import math
    for index in range(device_count):
        angle = 2 * math.pi * index / device_count
        node = ZigbeeNode(f"dev{index}",
                          Position(radius * math.cos(angle),
                                   radius * math.sin(angle)),
                          DeviceType.END_DEVICE)
        pan.add_node(node, parent=coordinator)
        devices.append(node)
    return pan, coordinator, devices


def line_mesh(sim, hops=3, spacing=20.0):
    pytest.importorskip("networkx")  # the optional 'mesh' extra
    pan = ZigbeePan(sim, Topology.MESH, range_m=25.0)
    coordinator = pan.add_node(
        ZigbeeNode("c", Position(0, 0, 0), DeviceType.COORDINATOR))
    previous = coordinator
    routers = []
    for index in range(hops):
        router = ZigbeeNode(f"r{index}",
                            Position(spacing * (index + 1), 0, 0),
                            DeviceType.ROUTER)
        pan.add_node(router, parent=previous)
        routers.append(router)
        previous = router
    return pan, coordinator, routers


class TestTopologyRules:
    def test_single_coordinator(self, sim):
        pan, _, _ = star_pan(sim)
        with pytest.raises(ConfigurationError):
            pan.add_node(ZigbeeNode("c2", Position(1, 0, 0),
                                    DeviceType.COORDINATOR))

    def test_rfd_cannot_be_a_parent(self, sim):
        pan, coordinator, devices = star_pan(sim)
        orphan = ZigbeeNode("orphan", Position(2, 2, 0),
                            DeviceType.END_DEVICE)
        with pytest.raises(ConfigurationError):
            pan.add_node(orphan, parent=devices[0])

    def test_child_must_be_in_parent_range(self, sim):
        pan, coordinator, _ = star_pan(sim)
        distant = ZigbeeNode("distant", Position(100, 0, 0),
                             DeviceType.ROUTER)
        with pytest.raises(ConfigurationError):
            pan.add_node(distant, parent=coordinator)

    def test_non_coordinator_needs_parent(self, sim):
        pan = ZigbeePan(sim, Topology.STAR)
        with pytest.raises(ConfigurationError):
            pan.add_node(ZigbeeNode("r", Position(0, 0, 0),
                                    DeviceType.ROUTER))


class TestOptionalNetworkx:
    """networkx is the 'mesh' extra: only a mesh-topology PAN needs it,
    and says so when it is built, not at the first ``route()``."""

    @pytest.fixture(autouse=True)
    def _networkx_not_installed(self, monkeypatch):
        # A None entry makes ``import networkx`` raise ImportError.
        monkeypatch.setitem(sys.modules, "networkx", None)

    def test_mesh_pan_names_the_missing_extra(self, sim):
        with pytest.raises(ConfigurationError, match="'mesh' extra"):
            ZigbeePan(sim, Topology.MESH)

    def test_star_and_tree_route_without_it(self, sim):
        pan, _, devices = star_pan(sim)
        assert pan.route(devices[0].name, devices[1].name) == \
            [devices[0].name, "coord", devices[1].name]
        tree = ZigbeePan(sim, Topology.CLUSTER_TREE, range_m=100.0)
        root = tree.add_node(ZigbeeNode("root", Position(0, 0, 0),
                                        DeviceType.COORDINATOR))
        tree.add_node(ZigbeeNode("leaf", Position(10, 0, 0),
                                 DeviceType.END_DEVICE), parent=root)
        assert tree.route("leaf", "root") == ["leaf", "root"]


class TestRouting:
    def test_star_routes_through_coordinator(self, sim):
        pan, coordinator, devices = star_pan(sim)
        route = pan.route(devices[0].name, devices[1].name)
        assert route == [devices[0].name, "coord", devices[1].name]

    def test_mesh_shortest_path(self, sim):
        pan, _, routers = line_mesh(sim, hops=3)
        route = pan.route("c", "r2")
        assert route == ["c", "r0", "r1", "r2"]

    def test_cluster_tree_routes_via_common_ancestor(self, sim):
        pan = ZigbeePan(sim, Topology.CLUSTER_TREE, range_m=100.0)
        root = pan.add_node(ZigbeeNode("root", Position(0, 0, 0),
                                       DeviceType.COORDINATOR))
        left = pan.add_node(ZigbeeNode("left", Position(-20, 0, 0),
                                       DeviceType.ROUTER), parent=root)
        right = pan.add_node(ZigbeeNode("right", Position(20, 0, 0),
                                        DeviceType.ROUTER), parent=root)
        leaf_l = pan.add_node(ZigbeeNode("leafL", Position(-30, 0, 0),
                                         DeviceType.END_DEVICE), parent=left)
        leaf_r = pan.add_node(ZigbeeNode("leafR", Position(30, 0, 0),
                                         DeviceType.END_DEVICE), parent=right)
        assert pan.route("leafL", "leafR") == \
            ["leafL", "left", "root", "right", "leafR"]

    def test_mesh_avoids_tree_detour_when_shortcut_exists(self, sim):
        """Mesh routing uses the connectivity graph, not the join tree."""
        pytest.importorskip("networkx")
        pan = ZigbeePan(sim, Topology.MESH, range_m=25.0)
        root = pan.add_node(ZigbeeNode("root", Position(0, 0, 0),
                                       DeviceType.COORDINATOR))
        a = pan.add_node(ZigbeeNode("a", Position(20, 0, 0),
                                    DeviceType.ROUTER), parent=root)
        # b joined via root but sits right next to a.
        b = pan.add_node(ZigbeeNode("b", Position(20, 15, 0),
                                    DeviceType.ROUTER), parent=root)
        route = pan.route("a", "b")
        assert route == ["a", "b"]

    def test_no_route_reported(self, sim):
        pan, _, routers = line_mesh(sim, hops=2)
        island = ZigbeeNode("island", Position(40, 20, 0),
                            DeviceType.ROUTER)
        pan.add_node(island, parent=routers[-1])
        island.position = Position(500, 0, 0)  # drifted away
        pan._graph = None
        assert pan.route("island", "c") is None
        assert not pan.send("island", "c", b"x")


class TestTraffic:
    def test_star_delivery(self, sim):
        pan, coordinator, devices = star_pan(sim)
        inbox = []
        coordinator.on_receive(lambda src, p, meta: inbox.append((src, p)))
        for index, device in enumerate(devices):
            pan.send(device.name, "coord", bytes([index]))
        sim.run(until=2.0)
        assert pan.delivery_ratio == 1.0
        assert sorted(payload[0] for _src, payload in inbox) == [0, 1, 2, 3]

    def test_multihop_mesh_delivery_and_hops(self, sim):
        pan, _, routers = line_mesh(sim, hops=4)
        pan.send("c", "r3", b"hello")
        sim.run(until=2.0)
        assert pan.counters.get("received") == 1
        assert pan.hop_counts.mean == pytest.approx(4.0)

    def test_latency_grows_with_hops(self, sim):
        pan, _, _ = line_mesh(sim, hops=4)
        pan.send("c", "r0", b"near")
        sim.run(until=2.0)
        near_latency = pan.latency.mean
        sim2 = Simulator(seed=99)
        pan2, _, _ = line_mesh(sim2, hops=4)
        pan2.send("c", "r3", b"far")
        sim2.run(until=2.0)
        assert pan2.latency.mean > near_latency

    def test_contention_causes_collisions_but_csma_recovers_most(self, sim):
        pan, coordinator, devices = star_pan(sim, device_count=4)
        for round_index in range(25):
            for device in devices:
                # All four leaves fire simultaneously: contention.
                sim.schedule(round_index * 0.02,
                             lambda d=device: pan.send(d.name, "coord",
                                                       b"burst"))
        sim.run(until=10.0)
        assert pan.counters.get("cca_busy") + \
            pan.counters.get("collisions") > 0
        assert pan.delivery_ratio > 0.9

    def test_meta_carries_hop_count(self, sim):
        pan, _, routers = line_mesh(sim, hops=2)
        metas = []
        routers[-1].on_receive(lambda src, p, meta: metas.append(meta))
        pan.send("c", "r1", b"x")
        sim.run(until=2.0)
        assert metas[0]["hops"] == 2
