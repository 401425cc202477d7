"""Mesh evaluation metrics: hop counts, path stretch, per-link load.

The questions a mesh operator asks after a run:

* **How long were the paths?** — hop-count distributions come straight
  from the per-packet counters the forwarding layer maintains
  (:attr:`MeshNode.hop_counts`, ``FlowStats.hops``).
* **Were they longer than they needed to be?** — *path stretch* is the
  ratio of the hops actually traversed to the shortest possible over
  the connectivity graph; 1.0 means the routing protocol found optimal
  paths.  The connectivity graph is derived from node positions and the
  radio range, matching the disc propagation the mesh scenarios use.
* **Which links carried the load?** — per-directed-link frame/byte
  counts aggregated across nodes ("the first hop of a chain carries
  everything").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..core.stats import Counter
from ..core.topology import Position

if TYPE_CHECKING:  # pragma: no cover
    from ..routing.node import MeshNode


def connectivity_graph(positions: Sequence[Position],
                       range_m: float) -> Dict[int, List[int]]:
    """Adjacency (by index) under a disc radio model of radius ``range_m``."""
    if range_m <= 0:
        raise ValueError(f"range must be positive: {range_m}")
    graph: Dict[int, List[int]] = {index: [] for index in range(len(positions))}
    for i, a in enumerate(positions):
        for j in range(i + 1, len(positions)):
            if a.distance_to(positions[j]) <= range_m:
                graph[i].append(j)
                graph[j].append(i)
    return graph


def shortest_hop_count(graph: Dict[int, List[int]], source: int,
                       destination: int) -> Optional[int]:
    """BFS shortest path length in hops; None when disconnected."""
    if source == destination:
        return 0
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        node, hops = frontier.popleft()
        for neighbor in graph[node]:
            if neighbor == destination:
                return hops + 1
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, hops + 1))
    return None


def path_stretch(actual_hops: float, shortest_hops: int) -> float:
    """Actual-over-optimal hop ratio (1.0 = shortest-path routing)."""
    if shortest_hops <= 0:
        raise ValueError(f"shortest_hops must be >= 1: {shortest_hops}")
    return actual_hops / shortest_hops


def aggregate_mesh_counters(nodes: Sequence["MeshNode"]) -> Counter:
    """Fleet-wide forwarding counters (sum over nodes)."""
    total = Counter()
    for node in nodes:
        total.merge(node.counters)
    return total


#: Directed link key: (transmitting node name, next-hop address string).
LinkKey = Tuple[str, str]


def per_link_load(nodes: Sequence["MeshNode"]) -> Dict[LinkKey, Counter]:
    """Frame/byte/failure counts per directed link, across the fleet."""
    links: Dict[LinkKey, Counter] = {}
    for node in nodes:
        for next_hop, counter in node.link_counters.items():
            links.setdefault((node.name, str(next_hop)),
                             Counter()).merge(counter)
    return links
