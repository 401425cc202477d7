"""Multi-hop mesh networking: forwarding, routing protocols, gateways.

The routing layer turns the library's single-hop MAC/PHY into networks
shaped like the ones real operators build — relay chains, meshes, and
wired-uplink gateways:

* :class:`~repro.routing.node.MeshNode` — the forwarding engine over an
  ad-hoc station (TTL, duplicate suppression, queue-on-route-miss,
  per-hop stats),
* :class:`~repro.routing.protocol.RoutingProtocol` — the pluggable
  next-hop strategy, with :class:`StaticRouting` (deterministic tables)
  and :class:`~repro.routing.dsdv.DsdvRouting` (sequence-numbered
  distance vector with triggered updates and break repair),
* :class:`~repro.routing.gateway.MeshGateway` — the portal bridge
  between a mesh edge node and an ESS
  :class:`~repro.net.ds.DistributionSystem`.

Topology builders live in :mod:`repro.scenarios`
(``chain_topology`` / ``grid_topology`` / ``build_mesh_network``);
mesh-specific metrics in :mod:`repro.analysis.mesh`.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "dsdv": ("DsdvConfig", "DsdvRouting"),
    "gateway": ("MeshGateway",),
    "node": ("MeshConfig", "MeshNode"),
    "packet": ("FLAG_FROM_DS", "INFINITE_METRIC", "MESH_HEADER_SIZE",
        "MeshHeader", "decode_dsdv_update", "decode_mesh",
        "encode_dsdv_update"),
    "protocol": ("RouteEntry", "RoutingProtocol", "StaticRouting"),
})
