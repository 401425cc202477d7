"""E4 — Fig 1.4: ZigBee star vs mesh vs cluster-tree.

A ring of six routers around a coordinator (ring chord 20 m, range
25 m, so ring neighbours hear each other and everyone hears the
coordinator) is driven with two workloads:

* **adjacent** — each router sends to its ring neighbour,
* **cross** — each router sends to the router across the ring.

The topology defines the forwarding rule:

* star: every frame relays through the coordinator — always 2 hops,
* mesh: shortest path on the true connectivity graph — 1 hop to a
  neighbour, 2 across (via the hub),
* cluster tree: the routers join as a chain of parent/child clusters,
  so cross-ring traffic must climb the branch — 3 hops.

That is the quantitative content of the text's Fig 1.4.
"""

import math

import pytest

from repro.analysis.tables import render_table
from repro.core import Position, Simulator
from repro.wpan.zigbee import DeviceType, Topology, ZigbeeNode, ZigbeePan

RING_RADIUS = 20.0
ROUTERS = 6


def build_pan(sim, topology):
    pan = ZigbeePan(sim, topology, range_m=25.0)
    coordinator = pan.add_node(
        ZigbeeNode("c", Position(0, 0, 0), DeviceType.COORDINATOR))
    routers = []
    for index in range(ROUTERS):
        angle = 2 * math.pi * index / ROUTERS
        position = Position(RING_RADIUS * math.cos(angle),
                            RING_RADIUS * math.sin(angle))
        if topology == Topology.CLUSTER_TREE and index > 0:
            parent = routers[index - 1]  # a chain of clusters
        else:
            parent = coordinator
        router = pan.add_node(
            ZigbeeNode(f"r{index}", position, DeviceType.ROUTER),
            parent=parent)
        routers.append(router)
    return pan, coordinator, routers


def run_workload(topology, kind, rounds=15, seed=7):
    sim = Simulator(seed=seed)
    pan, _coordinator, routers = build_pan(sim, topology)
    step = 1 if kind == "adjacent" else 3
    for round_index in range(rounds):
        for index, router in enumerate(routers):
            peer = routers[(index + step) % ROUTERS]
            sim.schedule(round_index * 0.1 + index * 0.008,
                         lambda s=router.name, d=peer.name:
                         pan.send(s, d, b"sensor reading"))
    sim.run(until=rounds * 0.1 + 5.0)
    return {
        "delivery": pan.delivery_ratio,
        "latency_ms": pan.latency.mean * 1e3,
        "hops": pan.hop_counts.mean,
    }


def test_fig_zigbee_topologies(record_result):
    results = {(topology, kind): run_workload(topology, kind)
               for topology in (Topology.STAR, Topology.MESH,
                                Topology.CLUSTER_TREE)
               for kind in ("adjacent", "cross")}
    rows = []
    for (topology, kind), result in results.items():
        rows.append([topology.value, kind, result["delivery"],
                     result["latency_ms"], result["hops"]])
    text = render_table(
        "E4: ZigBee topologies under identical workloads (Fig 1.4)",
        ["topology", "workload", "delivery", "latency ms", "mean hops"],
        rows, formats=[None, None, ".3f", ".2f", ".2f"])
    record_result("E4_zigbee_topologies", text)

    star_adj = results[(Topology.STAR, "adjacent")]
    star_cross = results[(Topology.STAR, "cross")]
    mesh_adj = results[(Topology.MESH, "adjacent")]
    mesh_cross = results[(Topology.MESH, "cross")]
    tree_cross = results[(Topology.CLUSTER_TREE, "cross")]
    # Star: the hub makes every device-to-device path exactly 2 hops.
    assert star_adj["hops"] == pytest.approx(2.0, abs=0.01)
    assert star_cross["hops"] == pytest.approx(2.0, abs=0.01)
    # Mesh exploits direct neighbour links.
    assert mesh_adj["hops"] == pytest.approx(1.0, abs=0.01)
    assert mesh_adj["latency_ms"] < star_adj["latency_ms"]
    # The cluster-tree detour costs extra hops on cross traffic.
    assert tree_cross["hops"] > star_cross["hops"]
    assert tree_cross["latency_ms"] > mesh_cross["latency_ms"]
    # Light load: everything is delivered everywhere.
    for result in results.values():
        assert result["delivery"] > 0.9


def test_rfd_leaf_constraint():
    """The text: 'a RFD may connect to a cluster-tree network as a leaf
    node at the end of a branch' — RFDs never relay."""
    sim = Simulator(seed=9)
    pan, _c, routers = build_pan(sim, Topology.MESH)
    leaves = []
    for index, router in enumerate(routers):
        angle = 2 * math.pi * index / ROUTERS
        leaf = pan.add_node(
            ZigbeeNode(f"leaf{index}",
                       Position(32 * math.cos(angle), 32 * math.sin(angle)),
                       DeviceType.END_DEVICE), parent=router)
        leaves.append(leaf)
    for leaf in leaves:
        pan.send(leaf.name, "c", b"report")
    sim.run(until=5.0)
    assert all(leaf.counters.get("relayed") == 0 for leaf in leaves)
    assert pan.counters.get("received") == len(leaves)
