"""Execute one concrete campaign job: spec in, protocol-stats row out.

The runner is the bridge between the declarative layer and the
existing scenario builders (:mod:`repro.scenarios`): every builder
registered here wires a complete topology, primes traffic, attaches
any declared adversaries, runs to the spec's horizon, and returns a
flat ``stats`` dict that is a **pure function of the seed** — the
determinism contract the content-addressed manifest and the
byte-compared result store rely on.

Builders never print and never read the wall clock; everything
machine- or time-dependent lives in the executor layer.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from .. import scenarios
from ..adversary.emitters import (BluetoothHopper, ConstantJammer,
                                  MicrowaveOven, PeriodicJammer,
                                  ReactiveJammer)
from ..core.engine import Simulator
from ..core.topology import Position
from ..core.trace import TraceLog
from ..mac.addresses import reset_allocator
from ..mac.dcf import DcfConfig
from ..phy.standards import DOT11B, DOT11G
from ..routing.protocol import StaticRouting
from ..traffic.generators import CbrSource, SaturatingSource
from ..traffic.sink import DeliveryCounter, TrafficSink
from .spec import SpecError

__all__ = ["run_job", "BUILDERS"]

_STANDARDS = {"b": DOT11B, "g": DOT11G}


# --- shared wiring ----------------------------------------------------------

def _mac_config(params: Dict[str, Any]) -> Optional[DcfConfig]:
    threshold = params.get("rts_threshold_bytes")
    if threshold is None:
        return None
    return DcfConfig(rts_threshold_bytes=threshold)


def _standard(params: Dict[str, Any], default: str = "g"):
    name = params.get("standard", default)
    if name not in _STANDARDS:
        raise SpecError("scenario.params.standard",
                        f"unknown standard {name!r}; available: "
                        f"{sorted(_STANDARDS)}")
    return _STANDARDS[name]


ADVERSARY_KINDS: Dict[str, Any] = {
    "periodic_jammer": PeriodicJammer,
    "constant_jammer": ConstantJammer,
    "reactive_jammer": ReactiveJammer,
    "bluetooth_hopper": BluetoothHopper,
    "microwave_oven": MicrowaveOven,
}


def _attach_adversaries(sim: Simulator, medium, standard,
                        entries: List[Dict[str, Any]]) -> None:
    """Instantiate + start every declared adversary on ``medium``.

    Each entry was validated by the spec layer; here the declarative
    form turns into the concrete emitter objects.  ``start`` delays
    the switch-on (an attack-phase study: baseline first, jam later);
    the default is on-from-the-start.
    """
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


def _cbr_uplink(sim: Simulator, bss, traffic: Dict[str, Any]):
    """Per-station CBR uplink into a sink on the AP (the jamming-study
    wiring).  Returns ``(sink, sources)``."""
    sink = TrafficSink(sim)
    bss.ap.on_receive(lambda source, payload, meta: sink.consume(payload))
    payload_bytes = traffic.get("payload_bytes", 400)
    interval = traffic.get("interval", 4e-3)
    sources = {}
    for station in bss.stations:
        sources[station.name] = CbrSource(
            sim,
            lambda p, s=station: s.associated and s.send(bss.ap.address, p),
            packet_bytes=payload_bytes, interval=interval)
    return sink, sources


def _saturate(receiver, senders, traffic: Dict[str, Any]
              ) -> DeliveryCounter:
    """Keep every sender's queue non-empty toward ``receiver``; count
    delivery there."""
    counter = DeliveryCounter()
    receiver.on_receive(counter)
    payload = bytes(traffic.get("payload_bytes", 800))
    depth = traffic.get("depth", 3)
    for sender in senders:
        sender.on_tx_complete(SaturatingSource(
            sender.mac, receiver.address, payload, depth))
    return counter


def _flow_stats(sink: TrafficSink, sources: Dict[str, Any]
                ) -> Dict[str, Any]:
    offered = sum(source.generated for source in sources.values())
    delivered = 0
    delivered_bytes = 0
    for source in sources.values():
        flow = sink.flow(source.flow_id)
        if flow is not None:
            delivered += flow.received
            delivered_bytes += flow.bytes_received
    return {
        "offered": offered,
        "delivered": delivered,
        "delivered_bytes": delivered_bytes,
        "pdr": (delivered / offered) if offered else 0.0,
    }


def _mac_drops(stations) -> int:
    return sum(station.mac.counters.get("msdu_dropped")
               for station in stations)


# --- builders ---------------------------------------------------------------

def _run_infrastructure_bss(sim: Simulator, spec: Dict[str, Any]
                            ) -> Dict[str, Any]:
    """An AP-centred cell (``build_infrastructure_bss``) under CBR or
    saturation uplink, with optional adversaries on the same medium."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    bss = scenarios.build_infrastructure_bss(
        sim, params.get("stations", 6),
        standard=_standard(params),
        radius_m=params.get("radius_m", 15.0),
        path_loss_exponent=params.get("path_loss_exponent", 3.0),
        mac_config=_mac_config(params))
    _attach_adversaries(sim, bss.medium, bss.ap.radio.standard,
                        spec["adversaries"])
    horizon = spec["scenario"]["horizon"]
    if traffic["kind"] == "cbr":
        sink, sources = _cbr_uplink(sim, bss, traffic)
        sim.run(until=sim.now + horizon)
        stats = _flow_stats(sink, sources)
    elif traffic["kind"] == "saturate":
        counter = _saturate(bss.ap, bss.stations, traffic)
        sim.run(until=sim.now + horizon)
        stats = {"rx_bytes": counter.bytes, "rx_frames": counter.frames}
    else:  # none: association + adversaries only (a control row)
        sim.run(until=sim.now + horizon)
        stats = {}
    stats["mac_drops"] = _mac_drops(bss.stations)
    return stats


def _run_hidden_terminal(sim: Simulator, spec: Dict[str, Any]
                         ) -> Dict[str, Any]:
    """Two mutually hidden saturated senders, one receiver
    (``build_hidden_terminal``) — the RTS/CTS study as data."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    if traffic["kind"] != "saturate":
        raise SpecError("traffic.kind",
                        "hidden_terminal is a saturation scenario; "
                        "use kind = 'saturate'")
    scenario = scenarios.build_hidden_terminal(
        sim, carrier_range_m=params.get("carrier_range_m", 250.0),
        mac_config=_mac_config(params))
    _attach_adversaries(sim, scenario.medium,
                        scenario.receiver.radio.standard,
                        spec["adversaries"])
    counter = _saturate(scenario.receiver,
                        (scenario.sender_a, scenario.sender_b), traffic)
    sim.run(until=sim.now + spec["scenario"]["horizon"])
    return {
        "rx_bytes": counter.bytes,
        "rx_frames": counter.frames,
        "mac_drops": _mac_drops([scenario.sender_a, scenario.sender_b]),
    }


def _run_mesh(sim: Simulator, spec: Dict[str, Any],
              positions, chain: bool) -> Dict[str, Any]:
    # Like DsdvRouting below and run_single under city_cells: what only
    # one builder needs is imported when that builder starts building.
    from ..analysis.mesh import aggregate_mesh_counters
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    protocol = params.get("protocol", "dsdv")
    if protocol == "static":
        if not chain:
            raise SpecError("scenario.params.protocol",
                            "static routing is only wired for chains "
                            "(install_chain_routes); use 'dsdv'")
        factory = StaticRouting
    elif protocol == "dsdv":
        from ..routing.dsdv import DsdvRouting
        factory = DsdvRouting
    else:
        raise SpecError("scenario.params.protocol",
                        f"unknown protocol {protocol!r}; available: "
                        f"['dsdv', 'static']")
    mesh = scenarios.build_mesh_network(
        sim, positions, factory,
        range_m=params.get("range_m", 45.0))
    if protocol == "static":
        scenarios.install_chain_routes(mesh.nodes)
    _attach_adversaries(sim, mesh.medium, DOT11B, spec["adversaries"])
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
    if traffic["kind"] != "cbr":
        raise SpecError("traffic.kind",
                        "mesh scenarios carry an end-to-end CBR flow; "
                        "use kind = 'cbr'")
    sink = TrafficSink(sim)
    mesh.nodes[dest_index].on_receive(sink)
    source = CbrSource(
        sim, mesh.nodes[source_index].sender(
            mesh.nodes[dest_index].address),
        packet_bytes=traffic.get("payload_bytes", 200),
        interval=traffic.get("interval", 0.02))
    sim.run(until=sim.now + spec["scenario"]["horizon"])
    totals = aggregate_mesh_counters(mesh.nodes)
    delivered = sink.total_received
    flow = sink.flow(source.flow_id)
    return {
        "offered": source.generated,
        "delivered": delivered,
        "delivered_bytes": sink.total_bytes,
        "pdr": (delivered / source.generated) if source.generated else 0.0,
        "mean_delay_ms": (flow.delay.mean * 1e3
                          if flow is not None and flow.received else 0.0),
        "forwarded": totals.get("forwarded"),
        "link_failures": totals.get("link_failures"),
        "converged": sum(
            1 for node in mesh.nodes
            if len(node.protocol.routes()) >= len(mesh.nodes) - 1),
    }


def _run_mesh_chain(sim: Simulator, spec: Dict[str, Any]
                    ) -> Dict[str, Any]:
    """A relay chain (``chain_topology`` + ``build_mesh_network``) with
    an end-to-end CBR flow over static or DSDV routing."""
    params = spec["scenario"]["params"]
    positions = scenarios.chain_topology(params.get("nodes", 4),
                                         params.get("spacing_m", 30.0))
    return _run_mesh(sim, spec, positions, chain=True)


def _run_mesh_grid(sim: Simulator, spec: Dict[str, Any]) -> Dict[str, Any]:
    """A rows x cols mesh grid (``grid_topology``) with an end-to-end
    CBR flow — the redundant-path topology."""
    params = spec["scenario"]["params"]
    positions = scenarios.grid_topology(params.get("rows", 2),
                                        params.get("cols", 4),
                                        params.get("spacing_m", 30.0))
    return _run_mesh(sim, spec, positions, chain=False)


def _run_interference_field(sim: Simulator, spec: Dict[str, Any]
                            ) -> Dict[str, Any]:
    """A CBR-uplink BSS ringed by duty-cycled emitters
    (``build_interference_field``), plus any declared adversaries."""
    params = spec["scenario"]["params"]
    traffic = spec["traffic"]
    field = scenarios.build_interference_field(
        sim,
        station_count=params.get("stations", 6),
        emitter_count=params.get("emitters", 8),
        radius_m=params.get("radius_m", 20.0),
        emitter_ring_m=params.get("emitter_ring_m", 35.0),
        emitter_power_dbm=params.get("emitter_power_dbm", 0.0),
        emitter_on_time=params.get("emitter_on_time", 300e-6),
        emitter_period=params.get("emitter_period", 900e-6),
        path_loss_exponent=params.get("path_loss_exponent", 3.0))
    bss = field.bss
    _attach_adversaries(sim, bss.medium, bss.ap.radio.standard,
                        spec["adversaries"])
    if traffic["kind"] != "cbr":
        raise SpecError("traffic.kind",
                        "interference_field measures delivery under "
                        "interference; use kind = 'cbr'")
    sink, sources = _cbr_uplink(sim, bss, traffic)
    field.start_emitters()
    sim.run(until=sim.now + spec["scenario"]["horizon"])
    stats = _flow_stats(sink, sources)
    stats["mac_drops"] = _mac_drops(bss.stations)
    return stats


def _run_city_cells(sim: Simulator, spec: Dict[str, Any]
                    ) -> Dict[str, Any]:
    """The sharded-executor city grid (``build_city_cells``) through the
    single-process oracle — the bulk-sweep face of ``city_scale``.

    ``run_single`` owns its own kernel, so the ``sim`` built by
    :func:`run_job` is unused here (its seed was already consumed into
    the call below).
    """
    from ..parallel import run_single
    params = spec["scenario"]["params"]
    cells = scenarios.build_city_cells(
        bss_count=params.get("bss_count", 4),
        stations_per_bss=params.get("stations_per_bss", 4),
        spacing_m=params.get("spacing_m", 120.0),
        payload_size=params.get("payload_size", 800))
    result = run_single(cells, seed=spec["scenario"]["seed"],
                        horizon=spec["scenario"]["horizon"],
                        propagation_factory=scenarios.city_propagation)
    rx_bytes = sum(cell["rx_bytes"] for cell in result["cells"].values())
    rx_frames = sum(cell["rx_frames"] for cell in result["cells"].values())
    return {"rx_bytes": rx_bytes, "rx_frames": rx_frames,
            "cells": len(result["cells"]),
            "events": result["events"]}


BUILDERS: Dict[str, Callable[[Simulator, Dict[str, Any]], Dict[str, Any]]] = {
    "infrastructure_bss": _run_infrastructure_bss,
    "hidden_terminal": _run_hidden_terminal,
    "mesh_chain": _run_mesh_chain,
    "mesh_grid": _run_mesh_grid,
    "interference_field": _run_interference_field,
    "city_cells": _run_city_cells,
}


def run_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one concrete job spec; return its ``stats`` dict.

    The returned stats always include ``events`` (total kernel events
    executed) and are a pure function of the spec — the runner resets
    the global MAC address allocator and builds a fresh tracing-off
    simulator per job, so jobs are independent whether they run
    in-process, serially, or fanned out across forked workers.
    """
    builder = spec["scenario"]["builder"]
    mode = spec["mode"]
    reset_allocator()
    sim = Simulator(seed=spec["scenario"]["seed"],
                    trace=TraceLog(enabled=False),
                    kernel=None if mode["kernel"] == "auto"
                    else mode["kernel"])
    # Subsystems that build their own Simulator (run_single under
    # city_cells) resolve the kernel from REPRO_KERNEL; pin it for the
    # duration of the job so an explicit spec kernel reaches them too.
    saved = os.environ.get("REPRO_KERNEL")
    if mode["kernel"] != "auto":
        os.environ["REPRO_KERNEL"] = mode["kernel"]
    try:
        stats = BUILDERS[builder](sim, spec)
    finally:
        if mode["kernel"] != "auto":
            if saved is None:
                os.environ.pop("REPRO_KERNEL", None)
            else:
                os.environ["REPRO_KERNEL"] = saved
    stats.setdefault("events", sim.events_executed)
    return stats
