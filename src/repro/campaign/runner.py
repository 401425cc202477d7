"""Execute one concrete campaign job: spec in, protocol-stats row out.

The runner is the bridge between the declarative layer and the
existing scenario builders (:mod:`repro.scenarios`).  :func:`build_job`
hands a fresh simulator to the spec's builder, which wires a complete
topology, primes traffic, attaches any declared adversaries, runs what
comes before its measured window (association, a mesh ``warmup``) and
returns a :class:`BuiltJob`: ``run(until)`` advances it, ``stats()``
reads a flat dict that is a **pure function of the seed** — the
determinism contract the manifest and the result store rely on.
:func:`run_job` is build, run to the spec's horizon, stats.

Builders never print and never read the wall clock; everything
machine- or time-dependent lives in the executor layer.  Whole streams
a run can produce besides its stats (``fault_trace``, ``arrival_log``,
``telemetry_*``) go to the optional ``streams`` dict of
:func:`run_job`, never into a store row.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from .. import scenarios
from ..adversary.emitters import (BluetoothHopper, ConstantJammer,
                                  MicrowaveOven, PeriodicJammer,
                                  ReactiveJammer)
from ..core.engine import Simulator
from ..core.topology import Position
from ..core.trace import TraceLog
from ..mac.addresses import allocate_address, reset_allocator
from ..mac.dcf import DcfConfig, DcfMac
from ..mac.rate_adapt import fixed_rate_factory
from ..phy.channel import Medium
from ..phy.propagation import FixedLoss
from ..phy.standards import DOT11B, DOT11G
from ..phy.transceiver import Radio
from ..routing.protocol import StaticRouting
from ..traffic.generators import CbrSource, SaturatingSource
from ..traffic.sink import DeliveryCounter, TrafficSink
from .spec import SpecError

__all__ = ["build_job", "run_job", "BuiltJob", "BUILDERS"]

_STANDARDS = {"b": DOT11B, "g": DOT11G}
#: The orthogonal channels ``saturated_cells`` puts its cells on.
_CHANNELS = (1, 6, 11, 14)

Streams = Dict[str, Any]


# --- shared wiring ----------------------------------------------------------

def _simulator(spec: Dict[str, Any], seed: int) -> Simulator:
    """A tracing-off simulator on the spec's kernel.

    Every simulator a job builds comes from here, through the module's
    ``Simulator`` name, so the spec's kernel — and a caller that swaps
    that name for a tracing factory — reaches every part of a
    multi-simulator builder.
    """
    return Simulator(seed=seed, trace=TraceLog(enabled=False),
                     kernel=kernel_of(spec))


def kernel_of(spec: Dict[str, Any]) -> Optional[str]:
    """The ``kernel`` argument the spec's simulators take: ``"auto"``
    defers to ``REPRO_KERNEL``, as ``Simulator(kernel=None)`` does."""
    kernel = spec["mode"]["kernel"]
    return None if kernel == "auto" else kernel


def _arm(sim: Simulator, spec: Dict[str, Any], streams: Streams, medium,
         macs: Sequence[Any] = (), meshes: Sequence[Any] = (),
         fault_log: Any = None) -> None:
    """Arm ``mode.invariants`` and ``mode.telemetry`` on one simulator,
    just before it runs.

    Both default off, and both are part of the job identity: the
    checker's sweeps and the sampler's ticks are heap events, so they
    move ``events`` (never a protocol outcome).  A telemetry hub waits
    in ``streams`` until :func:`run_job` finishes it.
    """
    mode = spec["mode"]
    if mode["invariants"]:
        from ..faults.invariants import InvariantChecker
        checker = InvariantChecker(sim, interval=0.05, strict=True)
        checker.watch_medium(medium)
        for nodes in meshes:
            checker.watch_mesh(nodes)
        checker.install()
    if mode["telemetry"]:
        from ..telemetry import Telemetry
        hub = Telemetry(sim, sample_interval=0.05)
        hub.instrument_kernel()
        hub.instrument_medium(medium)
        hub.instrument_macs(macs)
        hub.instrument_radios(medium._radios)
        if fault_log is not None:
            hub.instrument_faults(fault_log)
        streams.setdefault("_hubs", []).append(hub.install())


def _telemetry_streams(hubs: List[Any]) -> Streams:
    """Finish the hubs; return the ``telemetry_*`` streams.

    A multi-simulator job concatenates its per-part streams behind
    ``part`` marker lines, in part order — still canonical, still
    byte-stable.
    """
    for hub in hubs:
        hub.finish()
    if len(hubs) == 1:
        return {"telemetry_jsonl": hubs[0].sim_jsonl(),
                "telemetry_wall_jsonl": hubs[0].wall_jsonl(),
                "telemetry_summary": hubs[0].summary()}

    def joined(stream: Callable[[Any], str]) -> str:
        return "\n".join(
            line for index, hub in enumerate(hubs)
            for line in (json.dumps({"part": index, "type": "part"},
                                    sort_keys=True, separators=(",", ":")),
                         stream(hub).rstrip("\n"))) + "\n"
    return {"telemetry_jsonl": joined(lambda hub: hub.sim_jsonl()),
            "telemetry_wall_jsonl": joined(lambda hub: hub.wall_jsonl()),
            "telemetry_summary": [hub.summary() for hub in hubs]}


def _mac_config(params: Dict[str, Any]) -> Optional[DcfConfig]:
    threshold = params.get("rts_threshold_bytes")
    if threshold is None:
        return None
    return DcfConfig(rts_threshold_bytes=threshold)


def _choice(params: Dict[str, Any], key: str, choices,
            default: Optional[str]) -> str:
    """``params[key]`` (or ``default``), which must be one of ``choices``."""
    name = params.get(key, default)
    if name not in choices:
        raise SpecError(f"scenario.params.{key}",
                        f"unknown {key} {name!r}; available: "
                        f"{sorted(choices)}")
    return name


def _rate(params: Dict[str, Any], default: Optional[str] = None):
    """A fixed-rate factory for the 802.11b mode ``rate`` (or ``default``)
    names; ``None``, the MAC's own ARF, when neither does."""
    if "rate" not in params and default is None:
        return None
    return fixed_rate_factory(_choice(
        params, "rate", [mode.name for mode in DOT11B.modes], default))


def _require_traffic(spec: Dict[str, Any], kind: str, why: str) -> None:
    if spec["traffic"]["kind"] != kind:
        raise SpecError("traffic.kind",
                        f"{spec['scenario']['builder']} {why}; "
                        f"use kind = {kind!r}")


ADVERSARY_KINDS: Dict[str, Any] = {
    "periodic_jammer": PeriodicJammer,
    "constant_jammer": ConstantJammer,
    "reactive_jammer": ReactiveJammer,
    "bluetooth_hopper": BluetoothHopper,
    "microwave_oven": MicrowaveOven,
}


def _attach_adversaries(sim: Simulator, medium, standard,
                        entries: List[Dict[str, Any]]) -> List[Any]:
    """Instantiate + start every declared adversary on ``medium``;
    return the emitters.

    Each entry was validated by the spec layer; here the declarative
    form turns into the concrete emitter objects.  ``start`` delays
    the switch-on (an attack-phase study: baseline first, jam later);
    the default is on-from-the-start.
    """
    emitters = []
    for index, entry in enumerate(entries):
        kind = entry["kind"]
        cls = ADVERSARY_KINDS[kind]
        kwargs = {key: value for key, value in entry.items()
                  if key not in ("kind", "position", "start")}
        if kind == "microwave_oven" and "channels" in kwargs:
            kwargs["channels"] = tuple(kwargs["channels"])
        if kind == "reactive_jammer":
            kwargs.setdefault("standard", standard)
        kwargs.setdefault("name", f"adv{index}-{kind}")
        position = Position(*entry["position"])
        try:
            emitter = cls(sim, medium, position, **kwargs)
        except TypeError as exc:
            raise SpecError(f"adversaries.{index}", str(exc))
        start = entry.get("start", 0.0)
        if start > 0.0:
            sim.schedule(start, emitter.start)
        else:
            emitter.start()
        emitters.append(emitter)
    return emitters


def _cbr_uplink(sim: Simulator, bss, traffic: Dict[str, Any]
                ) -> Callable[[], Dict[str, Any]]:
    """Per-station CBR uplink into a sink on the AP (the jamming-study
    wiring).  Returns the reader of its flow stats."""
    sink = TrafficSink(sim)
    bss.ap.on_receive(lambda source, payload, meta: sink.consume(payload))
    payload_bytes = traffic.get("payload_bytes", 400)
    interval = traffic.get("interval", 4e-3)
    sources = [CbrSource(
        sim, lambda p, s=station: s.associated and s.send(bss.ap.address, p),
        packet_bytes=payload_bytes, interval=interval)
        for station in bss.stations]

    def read() -> Dict[str, Any]:
        offered = sum(source.generated for source in sources)
        flows = [sink.flow(source.flow_id) for source in sources]
        flows = [flow for flow in flows if flow is not None]
        delivered = sum(flow.received for flow in flows)
        return {
            "offered": offered,
            "delivered": delivered,
            "delivered_bytes": sum(flow.bytes_received for flow in flows),
            "pdr": (delivered / offered) if offered else 0.0,
        }
    return read


def _saturate(receiver, senders, traffic: Dict[str, Any]
              ) -> Callable[[], Dict[str, Any]]:
    """Keep every sender's queue non-empty toward ``receiver``; count
    delivery there.  Returns the reader of that count."""
    counter = DeliveryCounter()
    receiver.on_receive(counter)
    payload = bytes(traffic.get("payload_bytes", 800))
    depth = traffic.get("depth", 3)
    for sender in senders:
        sender.on_tx_complete(SaturatingSource(
            sender.mac, receiver.address, payload, depth))
    return lambda: {"rx_bytes": counter.bytes, "rx_frames": counter.frames}


def _mac_drops(stations) -> int:
    return sum(station.mac.counters.get("msdu_dropped")
               for station in stations)


# --- builders ---------------------------------------------------------------

class BuiltJob:
    """A wired job, stopped at the end of its build: ``run(until)``
    advances it to ``until`` sim-seconds past that point, again and
    again; ``stats()`` is a pure read; ``macs`` are the MACs it armed.
    ``whole`` runs a job that is not one simulator's (``fault_storm``,
    ``city_cells``) to ``until`` in one leg."""

    def __init__(self, sim: Simulator, read: Callable[[], Dict[str, Any]],
                 macs: Sequence[Any] = (),
                 whole: Optional[Callable[[float], None]] = None):
        self.sim, self.macs, self._read, self._whole = sim, macs, read, whole
        self._start, self._ran = sim.now, False

    def run(self, until: float) -> None:
        if self._whole is None:
            self.sim.run(until=self._start + until)
        elif self._ran:
            raise RuntimeError("this job runs in one leg; build it again")
        else:
            self._ran = True
            self._whole(until)

    def stats(self) -> Dict[str, Any]:
        stats = self._read()
        stats.setdefault("events", self.sim.events_executed)
        return stats


def _build_infrastructure_bss(sim: Simulator, spec: Dict[str, Any],
                              streams: Streams) -> BuiltJob:
    """An AP-centred cell (``build_infrastructure_bss``) under CBR or
    saturation uplink, with optional adversaries on the same medium."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    bss = scenarios.build_infrastructure_bss(
        sim, params.get("stations", 6),
        standard=_STANDARDS[_choice(params, "standard", _STANDARDS, "g")],
        radius_m=params.get("radius_m", 15.0),
        path_loss_exponent=params.get("path_loss_exponent", 3.0),
        mac_config=_mac_config(params))
    _attach_adversaries(sim, bss.medium, bss.ap.radio.standard,
                        spec["adversaries"])
    macs = [bss.ap.mac] + [station.mac for station in bss.stations]
    _arm(sim, spec, streams, bss.medium, macs)
    if traffic["kind"] == "cbr":
        read = _cbr_uplink(sim, bss, traffic)
    elif traffic["kind"] == "saturate":
        read = _saturate(bss.ap, bss.stations, traffic)
    else:  # none: association + adversaries only (a control row)
        read = dict
    return BuiltJob(sim, lambda: {**read(),
                                  "mac_drops": _mac_drops(bss.stations)},
                    macs)


def _build_hidden_terminal(sim: Simulator, spec: Dict[str, Any],
                           streams: Streams) -> BuiltJob:
    """Two mutually hidden saturated senders, one receiver
    (``build_hidden_terminal``) — the RTS/CTS study as data."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    _require_traffic(spec, "saturate", "is a saturation scenario")
    scenario = scenarios.build_hidden_terminal(
        sim, carrier_range_m=params.get("carrier_range_m", 250.0),
        mac_config=_mac_config(params),
        rate_factory=_rate(params))
    _attach_adversaries(sim, scenario.medium,
                        scenario.receiver.radio.standard,
                        spec["adversaries"])
    senders = (scenario.sender_a, scenario.sender_b)
    read = _saturate(scenario.receiver, senders, traffic)
    macs = [sender.mac for sender in senders] + [scenario.receiver.mac]
    _arm(sim, spec, streams, scenario.medium, macs)
    return BuiltJob(sim, lambda: {**read(), "mac_drops": _mac_drops(senders)},
                    macs)


def _build_saturated_cells(sim: Simulator, spec: Dict[str, Any],
                           streams: Streams) -> BuiltJob:
    """``bss_count`` co-located cells on orthogonal channels, each a
    receiver and ``stations_per_bss`` saturated bare-DCF senders, under
    ``FixedLoss(50)`` at ``rate`` (CCK-11); declared adversaries join
    after the stations.  One cell of 20 is the contention baseline, of
    100 the dense cell, and one under 26 duty-cycled jammers the
    interference field."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    _require_traffic(spec, "saturate", "is a saturation scenario")
    bss_count = params.get("bss_count", 1)
    if not 1 <= bss_count <= len(_CHANNELS):
        raise SpecError("scenario.params.bss_count",
                        f"1 to {len(_CHANNELS)} orthogonal cells, "
                        f"got {bss_count}")
    medium = Medium(sim, FixedLoss(50.0))
    config = _mac_config(params) or DcfConfig()
    factory = _rate(params, "CCK-11")
    payload = bytes(traffic.get("payload_bytes", 800))
    depth = traffic.get("depth", 3)
    counters, receivers, senders, macs = [], [], [], []
    for cell, channel in enumerate(_CHANNELS[:bss_count]):
        # A lone cell keeps the bare radio names its traces carry.
        prefix = f"bss{cell}-" if bss_count > 1 else ""
        receiver = DcfMac(sim, Radio(f"{prefix}rx", medium, DOT11B,
                                     Position(0, 100.0 * cell, 0),
                                     channel_id=channel),
                          allocate_address(), config=config,
                          rate_factory=factory)
        counters.append(DeliveryCounter())
        receiver.listener = counters[-1]
        receivers.append(receiver)
        macs.append(receiver)
        for index in range(params.get("stations_per_bss", 20)):
            mac = DcfMac(sim, Radio(f"{prefix}tx{index}", medium, DOT11B,
                                    Position(1.0 + index * 0.1,
                                             100.0 * cell, 0),
                                    channel_id=channel),
                         allocate_address(), config=config,
                         rate_factory=factory)
            mac.listener = SaturatingSource(mac, receiver.address, payload,
                                            depth)
            senders.append(mac)
            macs.append(mac)
    emitters = _attach_adversaries(sim, medium, DOT11B, spec["adversaries"])
    _arm(sim, spec, streams, medium, macs)
    return BuiltJob(sim, lambda: {
        "rx_bytes": sum(counter.bytes for counter in counters),
        "rx_frames": sum(counter.frames for counter in counters),
        "per_bss_frames": [counter.frames for counter in counters],
        "bursts": sum(emitter.counters.get("bursts")
                      for emitter in emitters),
        "rx_corrupt": sum(receiver.counters.get("rx_corrupt")
                          for receiver in receivers),
        "ack_timeouts": sum(mac.counters.get("ack_timeouts")
                            for mac in senders),
        "link_cache_hits": medium.links.hits,
        "link_cache_misses": medium.links.misses,
        "fanout_plan_hits": medium.plan_hits,
        "fanout_plan_misses": medium.plan_misses,
    }, macs)


def _build_mesh(sim: Simulator, spec: Dict[str, Any], streams: Streams,
                positions, chain: bool) -> BuiltJob:
    # Like DsdvRouting below and run_single under city_cells: what only
    # one builder needs is imported when that builder starts building.
    from ..analysis.mesh import aggregate_mesh_counters
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    protocol = _choice(params, "protocol", ("dsdv", "static"), "dsdv")
    if protocol == "static":
        if not chain:
            raise SpecError("scenario.params.protocol",
                            "static routing is only wired for chains "
                            "(install_chain_routes); use 'dsdv'")
        factory = StaticRouting
    else:
        from ..routing.dsdv import DsdvRouting
        factory = DsdvRouting
    mesh = scenarios.build_mesh_network(
        sim, positions, factory,
        range_m=params.get("range_m", 45.0))
    if protocol == "static":
        scenarios.install_chain_routes(mesh.nodes)
    _attach_adversaries(sim, mesh.medium, DOT11B, spec["adversaries"])
    macs = [node.station.mac for node in mesh.nodes]
    _arm(sim, spec, streams, mesh.medium, macs, meshes=(mesh.nodes,))
    mesh.start_routing()
    warmup = params.get("warmup", 1.0)
    if warmup > 0:
        sim.run(until=sim.now + warmup)
    source_index = params.get("source", len(mesh.nodes) - 1)
    dest_index = params.get("destination", 0)
    for name, index in (("source", source_index),
                        ("destination", dest_index)):
        if not 0 <= index < len(mesh.nodes):
            raise SpecError(f"scenario.params.{name}",
                            f"node index {index} out of range "
                            f"(mesh has {len(mesh.nodes)} nodes)")
    _require_traffic(spec, "cbr", "carries an end-to-end CBR flow")
    source_node, dest_node = mesh.nodes[source_index], mesh.nodes[dest_index]
    sink = TrafficSink(sim)
    dest_node.on_receive(sink)
    source = CbrSource(
        sim, source_node.sender(dest_node.address),
        packet_bytes=traffic.get("payload_bytes", 200),
        interval=traffic.get("interval", 0.02))
    pre_break: List[int] = []
    if "relay_break_at" in params:
        def _break_active_relay() -> None:
            # Move the source's current first hop out of everyone's
            # range: the break must be detected, poisoned and repaired.
            entry = source_node.protocol.routes().get(dest_node.address)
            if entry is not None:
                relay = next(node for node in mesh.nodes
                             if node.address == entry.next_hop)
                relay.station.position = Position(10_000.0, 10_000.0, 0.0)
            pre_break.append(sink.total_received)
        sim.schedule_at(params["relay_break_at"], _break_active_relay)

    def read() -> Dict[str, Any]:
        totals = aggregate_mesh_counters(mesh.nodes)
        offered, delivered = source.generated, sink.total_received
        flow = sink.flow(source.flow_id)
        received = flow is not None and flow.received
        hops = [flow.hops.minimum, flow.hops.maximum] if received else []
        stats = {
            "offered": offered,
            "delivered": delivered,
            "delivered_bytes": sink.total_bytes,
            "pdr": (delivered / offered) if offered else 0.0,
            "mean_delay_ms": flow.delay.mean * 1e3 if received else 0.0,
            "hops": hops,
            "route_misses": source_node.counters.get("route_misses"),
            "forwarded": totals.get("forwarded"),
            "link_failures": totals.get("link_failures"),
            "routes_broken": sum(node.counters.get("routes_broken")
                                 for node in mesh.nodes),
            "converged": sum(
                1 for node in mesh.nodes
                if len(node.protocol.routes()) >= len(mesh.nodes) - 1),
        }
        if pre_break:
            stats["pre_break_delivered"] = pre_break[0]
            stats["post_break_delivered"] = delivered - pre_break[0]
        return stats
    return BuiltJob(sim, read, macs)


def _build_mesh_chain(sim: Simulator, spec: Dict[str, Any],
                      streams: Streams) -> BuiltJob:
    """A relay chain (``chain_topology`` + ``build_mesh_network``) with
    an end-to-end CBR flow over static or DSDV routing."""
    params = spec["scenario"]["params"]
    positions = scenarios.chain_topology(params.get("nodes", 4),
                                         params.get("spacing_m", 30.0))
    return _build_mesh(sim, spec, streams, positions, chain=True)


def _build_mesh_grid(sim: Simulator, spec: Dict[str, Any],
                     streams: Streams) -> BuiltJob:
    """A rows x cols mesh grid (``grid_topology``) with an end-to-end
    CBR flow — the redundant-path topology; ``relay_break_at`` knocks
    the source's active first-hop relay out at that sim-time."""
    params = spec["scenario"]["params"]
    positions = scenarios.grid_topology(params.get("rows", 2),
                                        params.get("cols", 4),
                                        params.get("spacing_m", 30.0))
    return _build_mesh(sim, spec, streams, positions, chain=False)


def _build_roaming_ess(sim: Simulator, spec: Dict[str, Any],
                       streams: Streams) -> BuiltJob:
    """A station walks a 3-AP corridor (``build_ess``) at 8 m/s under a
    downlink CBR flow from a wired server: scanning, reassociation,
    the DS location table and link-cache invalidation on every move."""
    from ..mac.addresses import MacAddress
    from ..mobility.models import LinearMobility
    from ..net.roaming import RoamingPolicy
    from ..net.station import Station
    traffic = spec["traffic"]
    _require_traffic(spec, "cbr", "carries a downlink CBR flow")
    corridor = scenarios.build_ess(sim, ap_count=3, spacing_m=80.0)
    walker = Station(sim, corridor.medium, corridor.aps[0].radio.standard,
                     Position(2, 0, 0), name="walker",
                     roaming_policy=RoamingPolicy(
                         low_snr_threshold_db=28.0, hysteresis_db=3.0,
                         min_dwell=0.5))
    walker.associate("repro-ess")
    scenarios.associate_all(sim, [walker], timeout=5.0)
    sink = TrafficSink(sim)
    walker.on_receive(sink)
    server = MacAddress.from_string("00:10:20:30:40:50")
    CbrSource(
        sim,
        lambda p: (corridor.ess.ds.inject_from_portal(server, walker.address,
                                                      p), True)[1],
        packet_bytes=traffic.get("payload_bytes", 800),
        interval=traffic.get("interval", 0.02))
    LinearMobility(sim, walker, Position(170, 0, 0), speed_mps=8.0,
                   tick=0.1).start()
    macs = [walker.mac] + [ap.mac for ap in corridor.aps]
    _arm(sim, spec, streams, corridor.medium, macs)
    return BuiltJob(sim, lambda: {
        "rx_packets": sink.total_received,
        "roams": walker.sta_counters.get("roams"),
    }, macs)


def _build_fault_storm(sim: Simulator, spec: Dict[str, Any],
                       streams: Streams) -> BuiltJob:
    """Crash/restart + fade storm over a BSS and a DSDV mesh; the
    horizon is the measured window after each half's storm.

    * An infrastructure BSS with six uplink CBR stations: one station
      crashes and reboots (AP-side stale-station reaping), then the AP
      crashes for 300 ms — every station rides beacon loss into
      rescans and reassociates when the AP reboots.
    * A 3x3 DSDV grid (a second simulator, seed + 1) under a
      :class:`~repro.faults.ChaosMonkey` crash/restart storm across
      all seven relays, a 120 dB fade on the centre relay and a
      queue-pressure flood at the source.

    Post-storm delivery rates are compared with the pre-fault steady
    state (``pdr_recovery``, the min over both halves).  Every fault
    goes to one shared :class:`~repro.faults.FaultLog`: its canonical
    JSONL is the ``fault_trace`` stream and its SHA-1 a stat, so the
    pins hold the whole fault timeline, not just the outcome counts.

    The build wires the BSS half; the run, one leg, runs it out and
    then builds and runs the mesh half.
    """
    import hashlib

    from ..faults import ChaosMonkey, FaultLog, FaultSchedule, LinkFader
    from ..mac.addresses import BROADCAST
    from ..routing.dsdv import DsdvRouting
    traffic = spec["traffic"]
    _require_traffic(spec, "cbr", "carries CBR flows through the storm")
    payload_bytes = traffic.get("payload_bytes", 200)
    interval = traffic.get("interval", 0.02)

    # --- BSS half: station + AP crash/restart under uplink CBR -------------
    bss = scenarios.build_infrastructure_bss(sim, station_count=6)
    log = FaultLog()
    sink = TrafficSink(sim)
    bss.ap.on_receive(sink)
    bss.ap.start_reaping(idle_timeout=0.25, interval=0.1)
    ap_address = bss.ap.address
    for station in bss.stations:
        def _uplink(payload: bytes, _station=station) -> bool:
            # Guarded sender: an unassociated station (crashed, or its
            # AP is down) rejects the offer instead of raising.
            if not _station.associated:
                return False
            return _station.send(ap_address, payload)
        CbrSource(sim, _uplink, packet_bytes=payload_bytes,
                  interval=interval, start=0.2)
    schedule = FaultSchedule(sim, log=log)
    schedule.crash(bss.stations[0], at=0.6, down_for=0.5)
    schedule.crash(bss.ap, at=1.0, down_for=0.3)
    schedule.install()
    marks: Dict[str, int] = {}

    def _mark_bss(key: str) -> None:
        marks[key] = sink.total_received

    sim.schedule_at(0.3, _mark_bss, "bss_pre_lo")
    sim.schedule_at(0.6, _mark_bss, "bss_pre_hi")
    sim.schedule_at(2.0, _mark_bss, "bss_post_lo")
    macs = [bss.ap.mac] + [station.mac for station in bss.stations]
    _arm(sim, spec, streams, bss.medium, macs)
    stats: Dict[str, Any] = {}

    def run(window: float) -> None:
        sim.run(until=2.0 + window)
        bss_pre_rate = (marks["bss_pre_hi"] - marks["bss_pre_lo"]) / 0.3
        bss_post_rate = (sink.total_received - marks["bss_post_lo"]) / window

        # --- mesh half: chaos-monkey storm + fade over a DSDV grid ---------
        reset_allocator()
        mesh_sim = _simulator(spec, spec["scenario"]["seed"] + 1)
        grid = scenarios.build_mesh_network(
            mesh_sim, scenarios.grid_topology(3, 3, 30.0), DsdvRouting,
            range_m=40.0)
        grid.start_routing()
        mesh_sink = TrafficSink(mesh_sim)
        grid.nodes[8].on_receive(mesh_sink)
        CbrSource(mesh_sim, grid.nodes[0].sender(grid.nodes[8].address),
                  packet_bytes=payload_bytes, interval=interval, start=0.3)
        fader = LinkFader(grid.medium)
        monkey = ChaosMonkey(mesh_sim, targets=grid.nodes[1:8],
                             mean_interval=0.12, mean_downtime=0.2,
                             name="grid", log=log)
        schedule = FaultSchedule(mesh_sim, name="mesh-faults", log=log)
        schedule.fade(fader, grid.nodes[4].station.position, 120.0, at=0.9,
                      duration=0.4, target=grid.nodes[4].station.name)
        # Broadcast junk: drains at one (unacknowledged) transmission per
        # frame, so the flood's damage is contention + drops, not a queue
        # wedged for seconds behind retry-limited unicasts to a dead peer.
        schedule.queue_pressure(grid.nodes[0].station.mac, at=1.0,
                                fill=1.0, destination=BROADCAST)
        schedule.install()
        mesh_sim.schedule_at(0.8, monkey.start)

        def _end_storm() -> None:
            monkey.stop()
            monkey.restore_all()

        mesh_sim.schedule_at(1.6, _end_storm)

        def _mark_mesh(key: str) -> None:
            marks[key] = mesh_sink.total_received

        mesh_sim.schedule_at(0.5, _mark_mesh, "mesh_pre_lo")
        mesh_sim.schedule_at(0.8, _mark_mesh, "mesh_pre_hi")
        mesh_sim.schedule_at(2.2, _mark_mesh, "mesh_post_lo")
        # The shared fault log rides the mesh hub (complete by the time
        # it finishes), folding the whole storm into ``downtime`` spans.
        _arm(mesh_sim, spec, streams, grid.medium,
             [node.station.mac for node in grid.nodes],
             meshes=(grid.nodes,), fault_log=log)
        mesh_sim.run(until=2.2 + window)
        mesh_pre_rate = (marks["mesh_pre_hi"] - marks["mesh_pre_lo"]) / 0.3
        mesh_post_rate = (mesh_sink.total_received - marks["mesh_post_lo"]) \
            / window

        trace = streams["fault_trace"] = log.to_jsonl()
        stats.update({
            "bss_pre_rate": bss_pre_rate,
            "bss_post_rate": bss_post_rate,
            "bss_reassociations": sum(s.sta_counters.get("associations")
                                      for s in bss.stations),
            "ap_reaped": bss.ap.ap_counters.get("removed_stale"),
            "mesh_pre_rate": mesh_pre_rate,
            "mesh_post_rate": mesh_post_rate,
            "mesh_strikes": monkey.counters.get("strikes"),
            "mesh_restores": monkey.counters.get("restores"),
            "mesh_routes_broken": sum(node.counters.get("routes_broken")
                                      for node in grid.nodes),
            "pdr_recovery": min(
                bss_post_rate / bss_pre_rate if bss_pre_rate else 0.0,
                mesh_post_rate / mesh_pre_rate if mesh_pre_rate else 0.0),
            "faults_injected": len(log),
            "trace_sha1": hashlib.sha1(trace.encode()).hexdigest(),
            "events": sim.events_executed + mesh_sim.events_executed,
        })
    return BuiltJob(sim, lambda: dict(stats), macs, whole=run)


def _build_city_cells(sim: Simulator, spec: Dict[str, Any],
                      streams: Streams) -> BuiltJob:
    """The sharded-executor city grid (``build_city_cells``): through
    the single-process oracle, or — with ``workers`` set — as that many
    shards under ``run_sharded``, whose fingerprint (shards, rounds,
    boundary records, arrival-log SHA-1) joins the stats and whose
    canonical arrival log is the ``arrival_log`` stream.

    ``run_single`` and the shards own their kernels, so the ``sim``
    built by :func:`build_job` is unused here (its seed was already
    consumed into the run below), and the job runs in one leg.
    """
    from ..parallel import run_sharded, run_single
    params = spec["scenario"]["params"]
    mode = spec["mode"]
    cells = scenarios.build_city_cells(
        bss_count=params.get("bss_count", 4),
        stations_per_bss=params.get("stations_per_bss", 4),
        spacing_m=params.get("spacing_m", 120.0),
        payload_size=params.get("payload_size", 800))
    stats: Dict[str, Any] = {}

    def run(horizon: float) -> None:
        options = dict(seed=spec["scenario"]["seed"], horizon=horizon,
                       propagation_factory=scenarios.city_propagation,
                       check_invariants=mode["invariants"],
                       telemetry=mode["telemetry"])
        # The executors build their own simulators, which resolve the
        # kernel from REPRO_KERNEL: pin it for the run so an explicit
        # spec kernel reaches them too.
        saved = os.environ.get("REPRO_KERNEL")
        if mode["kernel"] != "auto":
            os.environ["REPRO_KERNEL"] = mode["kernel"]
        try:
            if "workers" in params:
                result = run_sharded(cells, workers=params["workers"],
                                     **options)
            else:
                result = run_single(cells, **options)
        finally:
            if mode["kernel"] != "auto":
                if saved is None:
                    os.environ.pop("REPRO_KERNEL", None)
                else:
                    os.environ["REPRO_KERNEL"] = saved
        per_cell = result["cells"]
        stats.update({
            "rx_bytes": sum(cell["rx_bytes"] for cell in per_cell.values()),
            "rx_frames": sum(cell["rx_frames"]
                             for cell in per_cell.values()),
            "per_bss_frames": [per_cell[name]["rx_frames"]
                               for name in sorted(per_cell)],
            "cells": len(per_cell),
            "events": result["events"]})
        if "workers" in params:
            stats.update({key: result[key] for key in (
                "shards", "rounds", "boundary_records", "arrival_log_sha1")})
            streams["arrival_log"] = result["arrival_log"]
        for key in ("telemetry_jsonl", "telemetry_wall_jsonl"):
            if key in result:
                streams[key] = result[key]
    return BuiltJob(sim, lambda: dict(stats), whole=run)


BUILDERS: Dict[str, Callable[[Simulator, Dict[str, Any], Streams],
                             BuiltJob]] = {
    "infrastructure_bss": _build_infrastructure_bss,
    "hidden_terminal": _build_hidden_terminal,
    "saturated_cells": _build_saturated_cells,
    "mesh_chain": _build_mesh_chain,
    "mesh_grid": _build_mesh_grid,
    "roaming_ess": _build_roaming_ess,
    "fault_storm": _build_fault_storm,
    "city_cells": _build_city_cells,
}


def build_job(spec: Dict[str, Any],
              streams: Optional[Streams] = None) -> BuiltJob:
    """Build one concrete job spec, on a reset MAC address allocator and
    a fresh tracing-off simulator, so that its stats are a pure function
    of the spec whatever ran before it in the process.  ``streams`` is
    as for :func:`run_job`; telemetry hubs wait in it until
    :func:`run_job` finishes them."""
    reset_allocator()
    sim = _simulator(spec, spec["scenario"]["seed"])
    return BUILDERS[spec["scenario"]["builder"]](
        sim, spec, {} if streams is None else streams)


def run_job(spec: Dict[str, Any],
            streams: Optional[Streams] = None) -> Dict[str, Any]:
    """Execute one concrete job spec; return its ``stats`` dict.

    The stats always include ``events`` (total kernel events executed)
    and, built by :func:`build_job`, are a pure function of the spec —
    so jobs are independent whether they run in-process, serially, or
    fanned out across forked workers.

    ``streams``, when given, receives the whole streams a job produces
    besides its stats: ``fault_trace`` (``fault_storm``),
    ``arrival_log`` (sharded ``city_cells``) and, under
    ``mode.telemetry``, ``telemetry_jsonl`` / ``telemetry_wall_jsonl``
    (and ``telemetry_summary`` where a hub ran in this process).
    """
    streams = {} if streams is None else streams
    job = build_job(spec, streams)
    job.run(spec["scenario"]["horizon"])
    stats = job.stats()
    hubs = streams.pop("_hubs", None)
    if hubs:
        streams.update(_telemetry_streams(hubs))
    return stats
