"""ZigBee / IEEE 802.15.4: device types, CSMA-CA, three topologies.

The source text (§2.1, Fig 1.4) describes ZigBee as a 250 kb/s,
low-power mesh standard with two device classes — full-function devices
(FFDs: coordinator / router / device) and reduced-function devices
(RFDs: leaf endpoints only) — and three topologies:

* **star**: every device talks only to the PAN coordinator,
* **mesh**: any FFD routes for any other; RFDs hang off FFDs,
* **cluster tree**: a special mesh where routing follows parent/child
  links, RFDs strictly as leaves.

The MAC is unslotted CSMA-CA with the standard's constants: 320 µs unit
backoff period (20 symbols at 62.5 ksym/s), BE ∈ [3, 5], at most 4
backoff attempts, 3 retransmissions on missing ACK.  The channel is a
single broadcast medium with disc connectivity (``range_m``): two
transmissions overlapping in time at a receiver collide.

Routing is computed on the connectivity graph (mesh: shortest path over
FFDs via :mod:`networkx`; tree: up to the common ancestor and down) and
frames hop node by node, each hop running its own CSMA-CA + ACK.
:mod:`networkx` is an optional dependency (the ``mesh`` extra) that only
a mesh-topology PAN needs; it is imported when one is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, ProtocolError
from ..core.stats import Counter, SampleStat
from ..core.topology import Position

DATA_RATE_BPS = 250_000.0
SYMBOL_TIME = 16e-6
UNIT_BACKOFF = 20 * SYMBOL_TIME      # 320 us
TURNAROUND = 12 * SYMBOL_TIME        # rx/tx turnaround
ACK_WAIT = 54 * SYMBOL_TIME
MAC_HEADER_BYTES = 11
ACK_BYTES = 5
PREAMBLE_TIME = 40 * SYMBOL_TIME / 4  # SHR+PHR ~ 6 bytes at 250kb/s

MIN_BE = 3
MAX_BE = 5
MAX_CSMA_BACKOFFS = 4
MAX_FRAME_RETRIES = 3


class DeviceType(Enum):
    COORDINATOR = "coordinator"  # FFD, exactly one per PAN
    ROUTER = "router"            # FFD
    END_DEVICE = "end-device"    # RFD: leaf only, never routes


class Topology(Enum):
    STAR = "star"
    MESH = "mesh"
    CLUSTER_TREE = "cluster-tree"


@dataclass
class _Transmission:
    sender: "ZigbeeNode"
    start: float
    end: float


class ZigbeeNode:
    """One 802.15.4 device."""

    def __init__(self, name: str, position: Position,
                 device_type: DeviceType):
        self.name = name
        self.position = position
        self.device_type = device_type
        self.parent: Optional["ZigbeeNode"] = None
        self.children: List["ZigbeeNode"] = []
        self.counters = Counter()
        self._receive_hook: Optional[Callable[[str, bytes, Dict], None]] = None
        self._busy = False  # processing one frame at a time

    @property
    def is_ffd(self) -> bool:
        return self.device_type != DeviceType.END_DEVICE

    def on_receive(self, hook: Callable[[str, bytes, Dict], None]) -> None:
        self._receive_hook = hook

    def deliver(self, source: str, payload: bytes, meta: Dict) -> None:
        self.counters.incr("delivered")
        if self._receive_hook is not None:
            self._receive_hook(source, payload, meta)


class ZigbeePan:
    """A personal area network: nodes, channel, routing, CSMA-CA MAC."""

    def __init__(self, sim: Simulator, topology: Topology,
                 range_m: float = 30.0):
        if range_m <= 0:
            raise ConfigurationError(f"range must be positive: {range_m}")
        self.sim = sim
        self.topology = topology
        self.range_m = range_m
        self.nodes: Dict[str, ZigbeeNode] = {}
        self.coordinator: Optional[ZigbeeNode] = None
        self.counters = Counter()
        self.latency = SampleStat()
        self.hop_counts = SampleStat()
        self._rng = sim.rng.stream("zigbee")
        self._active: List[_Transmission] = []
        self._graph: Any = None  # networkx.Graph, mesh topology only
        self._nx: Any = None
        if topology == Topology.MESH:
            # Here, in the build phase, not at the first route(): a run
            # must not import, and a missing extra must not fail mid-run.
            try:
                import networkx
            except ImportError as exc:
                raise ConfigurationError(
                    "a mesh-topology ZigbeePan routes over networkx, which "
                    "is not installed; install the 'mesh' extra "
                    "(pip install networkx)") from exc
            self._nx = networkx

    # --- membership ------------------------------------------------------------

    def add_node(self, node: ZigbeeNode,
                 parent: Optional[ZigbeeNode] = None) -> ZigbeeNode:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name}")
        if node.device_type == DeviceType.COORDINATOR:
            if self.coordinator is not None:
                raise ConfigurationError("PAN already has a coordinator")
            self.coordinator = node
        else:
            if parent is None:
                raise ConfigurationError(
                    f"{node.name} needs a parent (coordinator or router)")
            if not parent.is_ffd:
                raise ConfigurationError(
                    "an RFD cannot be a parent (RFDs are leaves)")
            if parent.name not in self.nodes:
                raise ConfigurationError("parent must be added first")
            if node.position.distance_to(parent.position) > self.range_m:
                raise ConfigurationError(
                    f"{node.name} is out of range of parent {parent.name}")
            node.parent = parent
            parent.children.append(node)
        self.nodes[node.name] = node
        self._graph = None  # invalidate routes
        return node

    # --- connectivity & routing --------------------------------------------------

    def in_range(self, a: ZigbeeNode, b: ZigbeeNode) -> bool:
        return a.position.distance_to(b.position) <= self.range_m

    def _connectivity(self) -> Any:
        if self._graph is not None:
            return self._graph
        graph = self._nx.Graph()
        names = list(self.nodes)
        graph.add_nodes_from(names)
        for i, name_a in enumerate(names):
            node_a = self.nodes[name_a]
            for name_b in names[i + 1:]:
                node_b = self.nodes[name_b]
                if not self.in_range(node_a, node_b):
                    continue
                # RFDs only link to their parent (they sleep otherwise).
                if not node_a.is_ffd and node_b is not node_a.parent:
                    continue
                if not node_b.is_ffd and node_a is not node_b.parent:
                    continue
                graph.add_edge(name_a, name_b)
        self._graph = graph
        return graph

    def route(self, source: str, destination: str) -> Optional[List[str]]:
        """The node-name path a frame follows, inclusive of endpoints."""
        if source == destination:
            return [source]
        if self.topology == Topology.STAR:
            assert self.coordinator is not None
            hub = self.coordinator.name
            if source == hub:
                return [hub, destination]
            if destination == hub:
                return [source, hub]
            return [source, hub, destination]
        if self.topology == Topology.CLUSTER_TREE:
            return self._tree_route(source, destination)
        graph = self._connectivity()
        try:
            return self._nx.shortest_path(graph, source, destination)
        except self._nx.NetworkXNoPath:
            return None

    def _ancestors(self, node: ZigbeeNode) -> List[ZigbeeNode]:
        chain = [node]
        while chain[-1].parent is not None:
            chain.append(chain[-1].parent)
        return chain

    def _tree_route(self, source: str, destination: str
                    ) -> Optional[List[str]]:
        src = self.nodes[source]
        dst = self.nodes[destination]
        up = self._ancestors(src)
        down = self._ancestors(dst)
        up_names = [node.name for node in up]
        down_names = [node.name for node in down]
        common = None
        for name in up_names:
            if name in down_names:
                common = name
                break
        if common is None:
            return None
        path_up = up_names[:up_names.index(common) + 1]
        path_down = list(reversed(down_names[:down_names.index(common)]))
        return path_up + path_down

    # --- the channel ------------------------------------------------------------

    def _channel_clear_at(self, node: ZigbeeNode) -> bool:
        now = self.sim.now
        self._active = [tx for tx in self._active if tx.end > now]
        return not any(self.in_range(tx.sender, node) for tx in self._active
                       if tx.sender is not node)

    def _collided(self, tx: _Transmission, receiver: ZigbeeNode) -> bool:
        for other in self._active:
            if other is tx or other.sender is receiver:
                continue
            overlaps = other.start < tx.end and tx.start < other.end
            if overlaps and self.in_range(other.sender, receiver):
                return True
        return False

    def _frame_airtime(self, payload_bytes: int) -> float:
        return PREAMBLE_TIME + \
            (MAC_HEADER_BYTES + payload_bytes) * 8 / DATA_RATE_BPS

    # --- traffic API ------------------------------------------------------------

    def send(self, source: str, destination: str, payload: bytes,
             meta: Optional[Dict[str, Any]] = None) -> bool:
        """Launch a frame; returns False when no route exists.

        Delivery (or loss) is reported through counters and the
        destination node's receive hook.
        """
        if source not in self.nodes or destination not in self.nodes:
            raise ProtocolError("unknown source or destination")
        path = self.route(source, destination)
        self.counters.incr("offered")
        if path is None or len(path) < 2:
            self.counters.incr("no_route")
            return False
        context = dict(meta or {})
        context.setdefault("sent_at", self.sim.now)
        context["hops"] = 0
        self._hop(path, 0, payload, context)
        return True

    def _hop(self, path: List[str], index: int, payload: bytes,
             context: Dict[str, Any]) -> None:
        sender = self.nodes[path[index]]
        receiver = self.nodes[path[index + 1]]
        self._csma_attempt(sender, receiver, path, index, payload, context,
                           backoff_exponent=MIN_BE, backoffs=0, retries=0)

    def _csma_attempt(self, sender: ZigbeeNode, receiver: ZigbeeNode,
                      path: List[str], index: int, payload: bytes,
                      context: Dict[str, Any], backoff_exponent: int,
                      backoffs: int, retries: int) -> None:
        delay = self._rng.randint(0, (1 << backoff_exponent) - 1) \
            * UNIT_BACKOFF
        self.sim.schedule(delay, self._after_backoff, sender, receiver,
                          path, index, payload, context, backoff_exponent,
                          backoffs, retries)

    def _after_backoff(self, sender: ZigbeeNode, receiver: ZigbeeNode,
                       path: List[str], index: int, payload: bytes,
                       context: Dict[str, Any], backoff_exponent: int,
                       backoffs: int, retries: int) -> None:
        if not self._channel_clear_at(sender):
            backoffs += 1
            self.counters.incr("cca_busy")
            if backoffs > MAX_CSMA_BACKOFFS:
                self.counters.incr("channel_access_failures")
                return
            self._csma_attempt(sender, receiver, path, index, payload,
                               context,
                               min(backoff_exponent + 1, MAX_BE),
                               backoffs, retries)
            return
        airtime = self._frame_airtime(len(payload))
        tx = _Transmission(sender, self.sim.now, self.sim.now + airtime)
        self._active.append(tx)
        sender.counters.incr("tx_frames")
        self.sim.schedule(airtime + TURNAROUND, self._tx_done, tx, sender,
                          receiver, path, index, payload, context,
                          retries)

    def _tx_done(self, tx: _Transmission, sender: ZigbeeNode,
                 receiver: ZigbeeNode, path: List[str], index: int,
                 payload: bytes, context: Dict[str, Any],
                 retries: int) -> None:
        collided = self._collided(tx, receiver) or \
            not self.in_range(sender, receiver)
        if collided:
            self.counters.incr("collisions")
            if retries >= MAX_FRAME_RETRIES:
                self.counters.incr("dropped")
                return
            self._csma_attempt(sender, receiver, path, index, payload,
                               context, MIN_BE, 0, retries + 1)
            return
        context["hops"] += 1
        if index + 1 == len(path) - 1:
            self.counters.incr("received")
            self.latency.add(self.sim.now - context["sent_at"])
            self.hop_counts.add(context["hops"])
            receiver.deliver(path[0], payload, dict(context))
        else:
            receiver.counters.incr("relayed")
            self._hop(path, index + 1, payload, context)

    # --- metrics -----------------------------------------------------------------

    @property
    def delivery_ratio(self) -> float:
        offered = self.counters.get("offered") - self.counters.get("no_route")
        if offered <= 0:
            return math.nan
        return self.counters.get("received") / offered
