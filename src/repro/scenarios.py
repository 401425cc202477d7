"""One-call scenario builders used by the examples and benchmarks.

Each builder wires a complete, ready-to-run topology — medium, devices,
association — so experiment code reads as *what* is measured rather
than *how* the network is assembled.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from math import cos, pi, sin
from typing import Callable, List, Optional

from .adversary.emitters import Emitter, PeriodicJammer
from .core.engine import Simulator
from .core.errors import AssociationTimeoutError, ConfigurationError, \
    SimulationError
from .core.topology import ORIGIN, Position, circle_layout, grid_layout, \
    line_layout
from .mac.dcf import DcfConfig, DcfMac
from .mac.rate_adapt import RateControllerFactory, fixed_rate_factory
from .net.ap import AccessPoint
from .net.bss import ExtendedServiceSet, IndependentBss
from .net.ds import DistributionSystem
from .net.station import Station
from .phy.channel import Medium
from .phy.propagation import LogDistance, PropagationModel, RangePropagation
from .phy.standards import DOT11B, DOT11G, PhyStandard
from .phy.transceiver import Radio
from .routing.node import MeshConfig, MeshNode
from .routing.protocol import RoutingProtocol, StaticRouting
from .traffic.generators import SaturatingSource
from .traffic.sink import DeliveryCounter


@dataclass
class InfrastructureBss:
    """An AP plus associated stations, ready for traffic."""

    sim: Simulator
    medium: Medium
    ap: AccessPoint
    stations: List[Station]

    def run_until_associated(self, timeout: float = 10.0) -> None:
        associate_all(self.sim, self.stations, timeout=timeout)


def associate_all(sim: Simulator, stations: List[Station],
                  timeout: float = 10.0) -> None:
    """Run the simulation until every station has associated.

    Event-driven: association hooks stop the run the instant the last
    station associates, so no events are wasted on polling and the
    returned clock is the actual association time.

    Completion is judged on the *current* association state of every
    station at each association event — not by draining a count of
    first associations.  The distinction matters under churn: a station
    that was associated at call time but disassociates mid-wait (beacon
    loss, an AP kicking it) simply keeps the wait alive until it
    re-associates, instead of turning a recoverable transient into a
    hard :class:`SimulationError` while timeout budget remains.
    """
    if all(station.associated for station in stations):
        return
    deadline = sim.now + timeout

    def _check(_bssid: object) -> None:
        if all(station.associated for station in stations):
            sim.stop()

    # Every station gets the hook (a currently-associated one may churn
    # and re-associate during the wait).  Each hook is unsubscribed
    # after the run: a late association (after a timeout) must never
    # sim.stop() an unrelated later run, and repeated associate_all
    # calls must not accumulate closures.
    unsubscribes = [station.on_associated(_check) for station in stations]
    try:
        sim.run(until=deadline)
    finally:
        for unsubscribe in unsubscribes:
            unsubscribe()
    stuck = [station for station in stations if not station.associated]
    if stuck:
        # Name the stragglers *and* their FSM states: "stuck in
        # scanning" (AP down / wrong channel) reads very differently
        # from "stuck in associating" (AP up but not answering), and
        # that difference is the first thing a failed run needs to say.
        detail = ", ".join(f"{station.name} ({station.state.value})"
                           for station in stuck)
        raise AssociationTimeoutError(
            f"{len(stuck)} of {len(stations)} stations failed to "
            f"associate within {timeout}s: {detail}", stations=stuck)


def build_infrastructure_bss(sim: Simulator, station_count: int,
                             standard: PhyStandard = DOT11G,
                             radius_m: float = 20.0,
                             ssid: str = "repro-net",
                             path_loss_exponent: float = 3.0,
                             mac_config: Optional[DcfConfig] = None,
                             rate_factory: Optional[RateControllerFactory] = None,
                             associate: bool = True,
                             ) -> InfrastructureBss:
    """An AP at the origin with ``station_count`` stations on a circle."""
    medium = Medium(sim, LogDistance(standard.band_hz,
                                     exponent=path_loss_exponent))
    ap = AccessPoint(sim, medium, standard, Position(0, 0, 0),
                     name="ap", ssid=ssid, mac_config=mac_config,
                     rate_factory=rate_factory)
    ap.start_beaconing()
    stations = []
    for index, position in enumerate(circle_layout(station_count, radius_m)):
        station = Station(sim, medium, standard, position,
                          name=f"sta{index}", mac_config=mac_config,
                          rate_factory=rate_factory)
        station.associate(ssid)
        stations.append(station)
    scenario = InfrastructureBss(sim, medium, ap, stations)
    if associate and station_count > 0:
        scenario.run_until_associated()
    return scenario


@dataclass
class AdhocNetwork:
    """An IBSS of peer stations."""

    sim: Simulator
    medium: Medium
    ibss: IndependentBss
    stations: List[Station]


def build_adhoc_network(sim: Simulator, station_count: int,
                        standard: PhyStandard = DOT11B,
                        radius_m: float = 15.0,
                        path_loss_exponent: float = 3.0,
                        mac_config: Optional[DcfConfig] = None,
                        ) -> AdhocNetwork:
    """Peer stations on a circle sharing one IBSS."""
    medium = Medium(sim, LogDistance(standard.band_hz,
                                     exponent=path_loss_exponent))
    ibss = IndependentBss.start(sim)
    stations = []
    for index, position in enumerate(circle_layout(station_count, radius_m)):
        station = Station(sim, medium, standard, position,
                          name=f"peer{index}", adhoc=True,
                          ibss_bssid=ibss.bssid, mac_config=mac_config)
        ibss.join(station)
        stations.append(station)
    return AdhocNetwork(sim, medium, ibss, stations)


@dataclass
class HiddenTerminalScenario:
    """Two senders that cannot hear each other, one receiver that hears
    both — the canonical RTS/CTS motivation."""

    sim: Simulator
    medium: Medium
    receiver: Station
    sender_a: Station
    sender_b: Station

    @property
    def stations(self) -> List[Station]:
        return [self.receiver, self.sender_a, self.sender_b]


def build_hidden_terminal(sim: Simulator,
                          standard: PhyStandard = DOT11B,
                          carrier_range_m: float = 250.0,
                          mac_config: Optional[DcfConfig] = None,
                          rate_factory: Optional[RateControllerFactory] = None,
                          ) -> HiddenTerminalScenario:
    """Senders at ±0.8R around a middle receiver: each sender hears the
    receiver but not the other sender (disc propagation makes the hidden
    relationship exact)."""
    medium = Medium(sim, RangePropagation(carrier_range_m,
                                          in_range_loss_db=60.0))
    separation = 0.8 * carrier_range_m
    ibss = IndependentBss.start(sim)
    receiver = Station(sim, medium, standard, Position(0, 0, 0),
                       name="rx", adhoc=True, ibss_bssid=ibss.bssid,
                       mac_config=mac_config, rate_factory=rate_factory)
    sender_a = Station(sim, medium, standard, Position(-separation, 0, 0),
                       name="txA", adhoc=True, ibss_bssid=ibss.bssid,
                       mac_config=mac_config, rate_factory=rate_factory)
    sender_b = Station(sim, medium, standard, Position(separation, 0, 0),
                       name="txB", adhoc=True, ibss_bssid=ibss.bssid,
                       mac_config=mac_config, rate_factory=rate_factory)
    for station in (receiver, sender_a, sender_b):
        ibss.join(station)
    return HiddenTerminalScenario(sim, medium, receiver, sender_a, sender_b)


@dataclass
class EssScenario:
    """Several APs in a line sharing one SSID over a wired DS."""

    sim: Simulator
    medium: Medium
    ess: ExtendedServiceSet
    aps: List[AccessPoint]


def chain_topology(count: int, spacing_m: float,
                   start: Position = ORIGIN) -> List[Position]:
    """Relay-chain placement: ``count`` nodes along +x, ``spacing_m``
    apart.  Pick a radio range in (spacing, 2*spacing) and only
    adjacent nodes can hear each other — the canonical multi-hop
    backhaul line."""
    if count < 2:
        raise ConfigurationError(f"a chain needs >= 2 nodes, got {count}")
    return line_layout(count, spacing_m, start=start)


def grid_topology(rows: int, cols: int, spacing_m: float,
                  start: Position = ORIGIN) -> List[Position]:
    """Mesh-grid placement: rows x cols nodes, ``spacing_m`` pitch.
    A radio range in (spacing, spacing*sqrt(2)) yields the 4-neighbor
    grid — the redundant-path topology route repair needs."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(
            f"grid needs rows, cols >= 1, got {rows}x{cols}")
    return grid_layout(rows, cols, spacing_m, start=start)


@dataclass
class MeshScenario:
    """An IBSS of mesh nodes, ready for routing + traffic."""

    sim: Simulator
    medium: Medium
    ibss: IndependentBss
    nodes: List[MeshNode]
    #: The disc radio range the topology was built for.
    range_m: float

    def start_routing(self) -> None:
        """Kick every node's routing protocol (no-op for static)."""
        for node in self.nodes:
            node.protocol.start()

    def addresses(self) -> List["MacAddress"]:
        return [node.address for node in self.nodes]

    def positions(self) -> List[Position]:
        return [node.station.position for node in self.nodes]


def build_mesh_network(sim: Simulator, positions: List[Position],
                       protocol_factory: Callable[[], RoutingProtocol],
                       standard: PhyStandard = DOT11B,
                       range_m: float = 45.0,
                       mac_config: Optional[DcfConfig] = None,
                       mesh_config: Optional[MeshConfig] = None,
                       medium: Optional[Medium] = None,
                       channel_id: int = 1,
                       name_prefix: str = "mesh",
                       ) -> MeshScenario:
    """Mesh nodes at explicit positions sharing one IBSS.

    Disc (:class:`RangePropagation`) radio by default, so the
    connectivity graph is exactly the geometric one
    :func:`repro.analysis.mesh.connectivity_graph` computes — multi-hop
    is forced by geometry, not by tuning path loss.  Pass an existing
    ``medium`` (e.g. one shared with an ESS on another channel) to
    co-locate the mesh with other networks.
    """
    if medium is None:
        medium = Medium(sim, RangePropagation(range_m,
                                              in_range_loss_db=60.0))
    ibss = IndependentBss.start(sim)
    nodes = []
    for index, position in enumerate(positions):
        station = Station(sim, medium, standard, position,
                          name=f"{name_prefix}{index}", adhoc=True,
                          ibss_bssid=ibss.bssid, mac_config=mac_config,
                          channel_id=channel_id)
        ibss.join(station)
        nodes.append(MeshNode(station, protocol_factory(),
                              config=mesh_config))
    return MeshScenario(sim, medium, ibss, nodes, range_m)


def install_chain_routes(nodes: List[MeshNode]) -> None:
    """Static all-pairs routes along a chain: each node's next hop
    toward any destination is its neighbor in that direction.  Requires
    every node to run :class:`~repro.routing.protocol.StaticRouting`."""
    for index, node in enumerate(nodes):
        protocol = node.protocol
        if not isinstance(protocol, StaticRouting):
            raise ConfigurationError(
                f"{node.name}: install_chain_routes needs StaticRouting, "
                f"got {protocol.name}")
        for target_index, target in enumerate(nodes):
            if target_index == index:
                continue
            step = 1 if target_index > index else -1
            protocol.set_route(target.address,
                               nodes[index + step].address,
                               metric=abs(target_index - index))


@dataclass
class InterferenceField:
    """A saturated BSS ringed by energy emitters — the jamming workload."""

    sim: Simulator
    medium: Medium
    bss: InfrastructureBss
    emitters: List[Emitter]

    def start_emitters(self) -> None:
        for emitter in self.emitters:
            emitter.start()

    def stop_emitters(self) -> None:
        for emitter in self.emitters:
            emitter.stop()


def build_interference_field(sim: Simulator, station_count: int = 10,
                             emitter_count: int = 20,
                             standard: PhyStandard = DOT11G,
                             radius_m: float = 20.0,
                             emitter_ring_m: float = 35.0,
                             emitter_power_dbm: float = 0.0,
                             emitter_on_time: float = 300e-6,
                             emitter_period: float = 900e-6,
                             path_loss_exponent: float = 3.0,
                             mac_config: Optional[DcfConfig] = None,
                             rate_factory: Optional[RateControllerFactory]
                             = None,
                             associate: bool = True) -> InterferenceField:
    """An infrastructure BSS ringed by duty-cycled energy emitters.

    ``emitter_count`` :class:`~repro.adversary.emitters.PeriodicJammer`
    sources sit on a circle of ``emitter_ring_m`` around the AP, their
    pulse phases staggered across one period so at any instant roughly
    ``emitter_count * duty`` bursts genuinely overlap — the
    deep-arrival-table regime (ROADMAP: the interference-field
    workload).
    Emitters are built stopped; call :meth:`InterferenceField.\
start_emitters` once the BSS is associated and traffic is primed.
    """
    bss = build_infrastructure_bss(
        sim, station_count, standard=standard, radius_m=radius_m,
        path_loss_exponent=path_loss_exponent, mac_config=mac_config,
        rate_factory=rate_factory, associate=associate)
    emitters: List[Emitter] = []
    for index in range(emitter_count):
        angle = 2.0 * pi * index / emitter_count
        position = Position(emitter_ring_m * cos(angle),
                            emitter_ring_m * sin(angle), 0.0)
        emitters.append(PeriodicJammer(
            sim, bss.medium, position, power_dbm=emitter_power_dbm,
            on_time=emitter_on_time, period=emitter_period,
            offset=emitter_period * index / emitter_count,
            name=f"field{index}"))
    return InterferenceField(sim, bss.medium, bss, emitters)


def build_ess(sim: Simulator, ap_count: int, spacing_m: float = 60.0,
              standard: PhyStandard = DOT11G, ssid: str = "repro-ess",
              path_loss_exponent: float = 3.2) -> EssScenario:
    """A corridor of APs: AP k at x = k * spacing."""
    medium = Medium(sim, LogDistance(standard.band_hz,
                                     exponent=path_loss_exponent))
    ds = DistributionSystem(sim)
    ess = ExtendedServiceSet(sim, ssid, ds=ds)
    aps = []
    for index in range(ap_count):
        ap = AccessPoint(sim, medium, standard,
                         Position(index * spacing_m, 0, 0),
                         name=f"ap{index}", ssid=ssid, ds=ds)
        ess.add_ap(ap)
        # Stagger beacons so same-channel APs don't beacon in lockstep.
        ap.start_beaconing(offset=0.010 * (index + 1))
        aps.append(ap)
    return EssScenario(sim, medium, ess, aps)


# --- partition-aware city-scale builders (sharded executor) -----------------

def city_propagation() -> PropagationModel:
    """The city grid's path-loss model: urban log-distance, exponent 4.

    A module-level factory (not a lambda) because both executors take a
    *factory*: under sharding each worker process instantiates its own
    model, and a stateless model guarantees the workers' link budgets
    are bit-identical to the single-process reference.
    """
    return LogDistance(DOT11B.band_hz, exponent=4.0)


def saturated_cell(stations: int, payload_size: int = 800):
    """Builder for one saturated 802.11b cell (a ``CellSpec.build``).

    One receiver at the cell center, ``stations`` saturated senders on
    a 10 m circle around it — the ``dcf_saturation`` workload dropped
    at the cell's coordinates.  All addresses come from the build
    context's deterministic per-cell block and all radios sit on the
    cell's channel, which is what makes the cell placement-independent:
    the same stats whether it runs single-process or in any shard.
    """

    def build(ctx):
        cell = ctx.cell
        config = DcfConfig()
        factory = fixed_rate_factory("CCK-11")
        payload = bytes(payload_size)
        center = cell.center
        receiver_radio = Radio(f"{cell.name}-rx", ctx.medium, DOT11B,
                               center, channel_id=cell.channel)
        receiver = DcfMac(ctx.sim, receiver_radio, ctx.address(),
                          config=config, rate_factory=factory)
        counter = receiver.listener = DeliveryCounter()
        for index, position in enumerate(
                circle_layout(stations, 10.0, center)):
            radio = Radio(f"{cell.name}-tx{index}", ctx.medium, DOT11B,
                          position, channel_id=cell.channel)
            mac = DcfMac(ctx.sim, radio, ctx.address(), config=config,
                         rate_factory=factory)
            mac.listener = SaturatingSource(mac, receiver.address, payload)
        return lambda: {"rx_bytes": counter.bytes,
                        "rx_frames": counter.frames}

    return build


def build_city_cells(bss_count: int = 24, stations_per_bss: int = 8, *,
                     spacing_m: float = 120.0, cell_radius_m: float = 12.0,
                     payload_size: int = 800,
                     columns: Optional[int] = None) -> List["CellSpec"]:
    """A city grid of saturated BSSes for the sharded executor.

    Cells sit on a ``spacing_m`` grid with the classic 2x2 channel-reuse
    pattern over (1, 6, 11, 14): co-channel cells are >= 2 grid pitches
    apart, which under :func:`city_propagation` (exponent-4 urban loss)
    puts their closest approach below the -110 dBm reception floor —
    every cell is an island and the partitioner proves it, so the grid
    shards with zero synchronization.  Shrink ``spacing_m`` (or raise
    the floor) to study the weakly-coupled regime instead.

    Scales from "tens of BSSes now" to hundreds: ``bss_count`` is the
    only knob, geometry and channel reuse extend unchanged.
    """
    from .parallel.partition import CellSpec
    channels = (1, 6, 11, 14)
    if columns is None:
        columns = max(1, math.isqrt(bss_count))
    cells = []
    for index in range(bss_count):
        row, column = divmod(index, columns)
        cells.append(CellSpec(
            name=f"cell{index:03d}",
            channel=channels[(row % 2) * 2 + (column % 2)],
            center=Position(column * spacing_m, row * spacing_m, 0.0),
            radius_m=cell_radius_m,
            build=saturated_cell(stations_per_bss, payload_size),
            weight=float(stations_per_bss),
        ))
    return cells
