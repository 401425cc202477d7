"""The eleven macro-scenarios and their seeded-stats pins.

Each scenario is a function ``(scale: float) -> dict`` that builds a
representative workload, runs it, and returns at least::

    {"stats": {...}}    # seed-deterministic outcome fingerprint

``scale`` stretches the workload (1.0 = the reference size).  ``stats``
must be a pure function of the seed and the scenario:
``tools/run_bench.py --check`` runs every macro at ``CHECK_SCALE`` and
compares its stats with the pin committed in ``baseline.json``, and
``tests/test_macro_pins.py`` runs that check in tier-1.  Extra keys
(``fault_trace``, ``arrival_log``, ``telemetry_*``) carry whole
canonical streams for the determinism tests.

Nothing here reads a clock; ``bench/`` measures time.  Tracing is
disabled (``_perf_simulator``) unless a caller swaps the factory, as
``tools/capture_golden.py`` does to capture the event traces.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

from repro.adversary.emitters import PeriodicJammer
from repro.core import Position, Simulator
from repro.core.trace import TraceLog
from repro.faults import (ChaosMonkey, FaultLog, FaultSchedule,
                          InvariantChecker, LinkFader)
from repro.mac.addresses import BROADCAST, allocate_address, reset_allocator
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.mobility.models import LinearMobility
from repro.net.roaming import RoamingPolicy
from repro.parallel import run_sharded, run_single
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.routing import DsdvRouting, StaticRouting
from repro.security.wep import WepCipher, crack_wep
from repro import scenarios
from repro.traffic.generators import CbrSource, SaturatingSource
from repro.traffic.sink import DeliveryCounter, TrafficSink


def _perf_simulator(seed: int) -> Simulator:
    """A simulator in benchmark posture: tracing fully disabled."""
    return Simulator(seed=seed, trace=TraceLog(enabled=False))


def _install_checker(sim: Simulator, medium: Medium,
                     meshes: Tuple = ()) -> InvariantChecker:
    """Strict-mode invariant sweeps for a macro run (opt-in).

    Every DES macro takes ``check_invariants=True`` to run under the
    checker; the default stays off because the checker's periodic
    events would perturb the pinned ``events`` counts.  The macro-invariants test sweeps all of them.
    """
    checker = InvariantChecker(sim, interval=0.05, strict=True)
    checker.watch_medium(medium)
    for nodes in meshes:
        checker.watch_mesh(nodes)
    return checker.install()


def _install_telemetry(sim: Simulator, medium: Medium, *, enabled: bool,
                       macs: Tuple = (), fault_log: Any = None,
                       interval: float = 0.05) -> Any:
    """Build + arm a :class:`repro.telemetry.Telemetry` hub (opt-in).

    Mirrors ``_install_checker``: every DES macro takes
    ``telemetry=True``; the default stays off because the sampler's
    events would perturb the pinned ``events`` count (never the
    protocol outcomes).  A disabled hub is
    a null object — every ``instrument_*`` call short-circuits.
    """
    from repro.telemetry import Telemetry
    hub = Telemetry(sim, enabled=enabled, sample_interval=interval)
    hub.instrument_kernel()
    hub.instrument_medium(medium)
    if enabled:
        hub.instrument_macs(macs)
        hub.instrument_radios(medium._radios)
        if fault_log is not None:
            hub.instrument_faults(fault_log)
    return hub.install()


def _telemetry_extras(hubs: List[Any]) -> Dict[str, Any]:
    """Finish the hubs and assemble the extra result keys.

    The pin check reads ``stats`` only; the telemetry determinism tests
    byte-compare ``telemetry_jsonl`` across seeded runs.
    Multi-kernel macros concatenate per-part streams behind ``part``
    marker lines, in part order — still canonical, still byte-stable.
    """
    for hub in hubs:
        hub.finish()
    if len(hubs) == 1:
        sim_jsonl = hubs[0].sim_jsonl()
        wall_jsonl = hubs[0].wall_jsonl()
        summary = hubs[0].summary()
    else:
        def _mark(index: int) -> str:
            return json.dumps({"part": index, "type": "part"},
                              sort_keys=True, separators=(",", ":"))
        sim_jsonl = "\n".join(
            line for index, hub in enumerate(hubs)
            for line in (_mark(index), hub.sim_jsonl().rstrip("\n"))) + "\n"
        wall_jsonl = "\n".join(
            line for index, hub in enumerate(hubs)
            for line in (_mark(index), hub.wall_jsonl().rstrip("\n"))) + "\n"
        summary = [hub.summary() for hub in hubs]
    return {"telemetry_jsonl": sim_jsonl,
            "telemetry_wall_jsonl": wall_jsonl,
            "telemetry_summary": summary}


def dcf_saturation(scale: float = 1.0, *, seed: int = 5,
                   stations: int = 20,
                   cache_links: bool = True,
                   check_invariants: bool = False,
                   telemetry: bool = False) -> Dict[str, Any]:
    """20 saturated stations sending 800-byte MSDUs to one receiver.

    The headline macro-benchmark: dominated by arrival fan-out, CCA
    edges, slot-by-slot backoff, and frame delivery decisions.
    """
    reset_allocator()
    sim = _perf_simulator(seed)
    medium = Medium(sim, FixedLoss(50.0), cache_links=cache_links)
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    receiver_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0))
    receiver = DcfMac(sim, receiver_radio, allocate_address(), config=config,
                      rate_factory=factory)
    counter = receiver.listener = DeliveryCounter()
    payload = bytes(800)
    macs = [receiver]
    for index in range(stations):
        radio = Radio(f"tx{index}", medium, DOT11B,
                      Position(1.0 + index * 0.1, 0, 0))
        mac = DcfMac(sim, radio, allocate_address(), config=config,
                     rate_factory=factory)
        mac.listener = SaturatingSource(mac, receiver.address, payload)
        macs.append(mac)
    if check_invariants:
        _install_checker(sim, medium)
    hub = _install_telemetry(sim, medium, enabled=telemetry, macs=macs)
    horizon = 0.4 + 1.0 * scale
    sim.run(until=horizon)
    result = {
        "stats": {
            "rx_bytes": counter.bytes,
            "rx_frames": counter.frames,
            "events": sim.events_executed,
            "link_cache_hits": medium.links.hits,
            "link_cache_misses": medium.links.misses,
            "fanout_plan_hits": medium.plan_hits,
            "fanout_plan_misses": medium.plan_misses,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([hub]))
    return result


def dcf_saturation_100(scale: float = 1.0, *, seed: int = 17,
                       check_invariants: bool = False,
                       telemetry: bool = False) -> Dict[str, Any]:
    """100 saturated stations to one receiver: the dense-contention macro.

    Everything that grows with N concentrates here — arrival fan-out
    (101 radios hear every frame), CCA-edge storms, and simultaneous
    batched-countdown re-anchoring across the whole cell.
    """
    return dcf_saturation(scale, seed=seed, stations=100,
                          check_invariants=check_invariants,
                          telemetry=telemetry)


def multi_bss(scale: float = 1.0, *, seed: int = 23,
              bss_count: int = 4, stations_per_bss: int = 6,
              check_invariants: bool = False,
              telemetry: bool = False) -> Dict[str, Any]:
    """Several co-located BSSes on orthogonal channels, all saturated.

    Exercises per-channel medium isolation: the fan-out must touch only
    co-channel radios, so with the per-channel receiver lists the event
    cost per frame is O(cell size), not O(all radios).
    """
    channels = (1, 6, 11, 14)
    if bss_count > len(channels):
        raise ValueError(f"at most {len(channels)} orthogonal BSSes")
    reset_allocator()
    sim = _perf_simulator(seed)
    medium = Medium(sim, FixedLoss(50.0))
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    payload = bytes(800)
    counters = []
    macs = []
    for bss in range(bss_count):
        channel = channels[bss]
        receiver_radio = Radio(f"bss{bss}-rx", medium, DOT11B,
                               Position(0, 100.0 * bss, 0),
                               channel_id=channel)
        receiver = DcfMac(sim, receiver_radio, allocate_address(),
                          config=config, rate_factory=factory)
        counter = receiver.listener = DeliveryCounter()
        counters.append(counter)
        macs.append(receiver)
        for index in range(stations_per_bss):
            radio = Radio(f"bss{bss}-tx{index}", medium, DOT11B,
                          Position(1.0 + index * 0.1, 100.0 * bss, 0),
                          channel_id=channel)
            mac = DcfMac(sim, radio, allocate_address(), config=config,
                         rate_factory=factory)
            mac.listener = SaturatingSource(mac, receiver.address, payload)
            macs.append(mac)
    if check_invariants:
        _install_checker(sim, medium)
    hub = _install_telemetry(sim, medium, enabled=telemetry, macs=macs)
    horizon = 0.4 + 1.0 * scale
    sim.run(until=horizon)
    result = {
        "stats": {
            "rx_bytes": sum(counter.bytes for counter in counters),
            "rx_frames": sum(counter.frames for counter in counters),
            "per_bss_frames": [counter.frames for counter in counters],
            "events": sim.events_executed,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([hub]))
    return result


def interference_field(scale: float = 1.0, *, seed: int = 29,
                       check_invariants: bool = False,
                       telemetry: bool = False) -> Dict[str, Any]:
    """A saturated BSS drowning in 26 overlapping energy emitters.

    The dense interference-field macro the ROADMAP called for: 20
    saturated stations (the `dcf_saturation` cell) plus a field of
    duty-cycled energy emitters whose pulse phases are staggered so
    many bursts genuinely overlap at every receiver:

    * 20 *weak* emitters (below the preamble floor, above the
      reception floor) — pure arrival-table depth: at any instant ~7
      of them are on the air, so every CCA edge re-sums an 8-deep
      table.
    * 4 *strong* emitters (above the CCA threshold) — airtime thieves:
      the DCF freezes during their bursts, so contention re-anchoring
      churns on top of the deep table.
    * 2 *corruptors* (strong enough to matter in SINR) — their bursts
      overlap in-flight receptions and corrupt frames, exercising the
      interference-refresh path under depth.

    Delivery is therefore well below `dcf_saturation`'s — by design;
    the seeded stats pin the exact degradation.
    """
    reset_allocator()
    sim = _perf_simulator(seed)
    medium = Medium(sim, FixedLoss(50.0))
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    receiver_radio = Radio("rx", medium, DOT11B, Position(0, 0, 0))
    receiver = DcfMac(sim, receiver_radio, allocate_address(), config=config,
                      rate_factory=factory)
    counter = receiver.listener = DeliveryCounter()
    payload = bytes(800)
    macs = []
    for index in range(20):
        radio = Radio(f"tx{index}", medium, DOT11B,
                      Position(1.0 + index * 0.1, 0, 0))
        mac = DcfMac(sim, radio, allocate_address(), config=config,
                     rate_factory=factory)
        mac.listener = SaturatingSource(mac, receiver.address, payload)
        macs.append(mac)
    # With FixedLoss(50) every emitter arrives at power_dbm - 50 at
    # every victim.  DOT11B's noise floor is ~-93.6 dBm, CCA -82 dBm,
    # reception floor -110 dBm; the three emitter tiers sit at
    # -96 dBm (energy only), -75 dBm (CCA busy) and -40 dBm (SINR).
    emitters = []
    for index in range(20):
        emitters.append(PeriodicJammer(
            sim, medium, Position(30.0 + index, 30.0, 0),
            power_dbm=-46.0, on_time=500e-6, period=1500e-6,
            offset=1500e-6 * index / 20.0, name=f"weak{index}"))
    for index in range(4):
        emitters.append(PeriodicJammer(
            sim, medium, Position(-30.0 - index, 30.0, 0),
            power_dbm=-25.0, on_time=500e-6, period=8e-3,
            offset=8e-3 * index / 4.0, name=f"strong{index}"))
    for index in range(2):
        emitters.append(PeriodicJammer(
            sim, medium, Position(-30.0 - index, -30.0, 0),
            power_dbm=10.0, on_time=200e-6, period=5e-3,
            offset=5e-3 * (0.5 + index) / 2.0, name=f"corrupt{index}"))
    for emitter in emitters:
        emitter.start()
    if check_invariants:
        _install_checker(sim, medium)
    hub = _install_telemetry(sim, medium, enabled=telemetry,
                             macs=[receiver] + macs)
    horizon = 0.4 + 1.0 * scale
    sim.run(until=horizon)
    result = {
        "stats": {
            "rx_bytes": counter.bytes,
            "rx_frames": counter.frames,
            "events": sim.events_executed,
            "bursts": sum(emitter.counters.get("bursts")
                          for emitter in emitters),
            "rx_corrupt": receiver.counters.get("rx_corrupt"),
            "ack_timeouts": sum(mac.counters.get("ack_timeouts")
                                for mac in macs),
            "fanout_plan_hits": medium.plan_hits,
            "fanout_plan_misses": medium.plan_misses,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([hub]))
    return result


def hidden_terminal(scale: float = 1.0, *, seed: int = 11,
                    check_invariants: bool = False,
                    telemetry: bool = False) -> Dict[str, Any]:
    """Two mutually hidden saturated senders with RTS/CTS enabled.

    Exercises the collision/RTS reservation machinery and the disc
    propagation model's zero-gain fast path.
    """
    reset_allocator()
    sim = _perf_simulator(seed)
    config = DcfConfig(rts_threshold_bytes=400)
    scenario = scenarios.build_hidden_terminal(sim, mac_config=config)
    counter = DeliveryCounter()
    scenario.receiver.on_receive(counter)
    payload = bytes(1000)
    for sender in (scenario.sender_a, scenario.sender_b):
        # Stations route tx-complete through the device listener; hook
        # the source at the device layer to keep the queue saturated.
        sender.on_tx_complete(SaturatingSource(
            sender.mac, scenario.receiver.address, payload))
    if check_invariants:
        _install_checker(sim, scenario.medium)
    hub = _install_telemetry(
        sim, scenario.medium, enabled=telemetry,
        macs=[scenario.sender_a.mac, scenario.sender_b.mac,
              scenario.receiver.mac])
    horizon = 2.0 * scale
    sim.run(until=horizon)
    result = {
        "stats": {
            "rx_bytes": counter.bytes,
            "rx_frames": counter.frames,
            "events": sim.events_executed,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([hub]))
    return result


def roaming_ess(scale: float = 1.0, *, seed: int = 7,
                check_invariants: bool = False,
                telemetry: bool = False) -> Dict[str, Any]:
    """A station walks a 3-AP corridor with a downlink CBR flow.

    Exercises scanning/association, the DS location table, mobility
    ticks and — critically — LinkCache invalidation on every move.
    """
    reset_allocator()
    sim = _perf_simulator(seed)
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
    from repro.mac.addresses import MacAddress
    server = MacAddress.from_string("00:10:20:30:40:50")
    CbrSource(
        sim,
        lambda p: (corridor.ess.ds.inject_from_portal(server, walker.address,
                                                      p), True)[1],
        packet_bytes=800, interval=0.02)
    LinearMobility(sim, walker, Position(170, 0, 0), speed_mps=8.0,
                   tick=0.1).start()
    if check_invariants:
        _install_checker(sim, corridor.medium)
    hub = _install_telemetry(
        sim, corridor.medium, enabled=telemetry,
        macs=[walker.mac] + [ap.mac for ap in corridor.aps])
    horizon = sim.now + 20.0 * scale
    sim.run(until=horizon)
    result = {
        "stats": {
            "rx_packets": sink.total_received,
            "roams": walker.sta_counters.get("roams"),
            "events": sim.events_executed,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([hub]))
    return result


def mesh_backhaul(scale: float = 1.0, *, seed: int = 31,
                  check_invariants: bool = False,
                  telemetry: bool = False) -> Dict[str, Any]:
    """Multi-hop mesh relaying: the routing-layer macro.

    Three sub-scenarios, events summed:

    * an 8-node **static** relay chain carrying CBR end-to-end over 7
      wireless hops (forwarding-engine throughput),
    * the same chain under **DSDV** — traffic starts before
      convergence, queues on route miss, and flows once the
      distance-vector tables settle,
    * a 3x3 **DSDV grid** whose active first-hop relay is knocked out
      mid-run: the break must be detected (MAC retry exhaustion),
      poisoned (odd sequence), and repaired through the redundant path
      with traffic resuming — the route-repair workload.

    All outcome stats are pure functions of the seed; the hop counts in
    particular pin the paths taken, so any routing behavior change
    trips the determinism gate.
    """
    reset_allocator()
    sim = _perf_simulator(seed)
    chain = scenarios.build_mesh_network(
        sim, scenarios.chain_topology(8, 30.0), StaticRouting,
        range_m=40.0)
    scenarios.install_chain_routes(chain.nodes)
    static_sink = TrafficSink(sim)
    chain.nodes[7].on_receive(static_sink)
    static_source = CbrSource(
        sim, chain.nodes[0].sender(chain.nodes[7].address),
        packet_bytes=200, interval=0.01)
    if check_invariants:
        _install_checker(sim, chain.medium, meshes=(chain.nodes,))
    static_hub = _install_telemetry(
        sim, chain.medium, enabled=telemetry,
        macs=[node.station.mac for node in chain.nodes])
    static_horizon = 0.4 + 1.0 * scale
    sim.run(until=static_horizon)
    static_events = sim.events_executed
    static_flow = static_sink.flow(static_source.flow_id)

    reset_allocator()
    sim = _perf_simulator(seed + 1)
    dsdv_chain = scenarios.build_mesh_network(
        sim, scenarios.chain_topology(8, 30.0), DsdvRouting, range_m=40.0)
    dsdv_chain.start_routing()
    dsdv_sink = TrafficSink(sim)
    dsdv_chain.nodes[7].on_receive(dsdv_sink)
    dsdv_source = CbrSource(
        sim, dsdv_chain.nodes[0].sender(dsdv_chain.nodes[7].address),
        packet_bytes=200, interval=0.02)
    if check_invariants:
        _install_checker(sim, dsdv_chain.medium, meshes=(dsdv_chain.nodes,))
    dsdv_hub = _install_telemetry(
        sim, dsdv_chain.medium, enabled=telemetry,
        macs=[node.station.mac for node in dsdv_chain.nodes])
    dsdv_horizon = 1.0 + 1.0 * scale
    sim.run(until=dsdv_horizon)
    dsdv_events = sim.events_executed
    dsdv_flow = dsdv_sink.flow(dsdv_source.flow_id)

    reset_allocator()
    sim = _perf_simulator(seed + 2)
    grid = scenarios.build_mesh_network(
        sim, scenarios.grid_topology(3, 3, 30.0), DsdvRouting, range_m=40.0)
    grid.start_routing()
    grid_sink = TrafficSink(sim)
    corner = grid.nodes[8]
    grid.nodes[8].on_receive(grid_sink)
    CbrSource(sim, grid.nodes[0].sender(corner.address),
              packet_bytes=200, interval=0.02, start=0.3)
    break_at = 0.8
    pre_break = []

    def _break_active_relay() -> None:
        entry = grid.nodes[0].protocol.routes().get(corner.address)
        assert entry is not None, "grid did not converge before the break"
        relay = next(node for node in grid.nodes
                     if node.address == entry.next_hop)
        relay.station.position = Position(10_000.0, 10_000.0, 0.0)
        pre_break.append(grid_sink.total_received)

    sim.schedule_at(break_at, _break_active_relay)
    if check_invariants:
        _install_checker(sim, grid.medium, meshes=(grid.nodes,))
    grid_hub = _install_telemetry(
        sim, grid.medium, enabled=telemetry,
        macs=[node.station.mac for node in grid.nodes])
    grid_horizon = break_at + 0.8 + 1.2 * scale
    sim.run(until=grid_horizon)
    grid_events = sim.events_executed
    broken = sum(node.counters.get("routes_broken") for node in grid.nodes)

    result = {
        "stats": {
            "static_delivered": static_flow.received,
            "static_generated": static_source.generated,
            "static_hops": [static_flow.hops.minimum,
                            static_flow.hops.maximum],
            "dsdv_delivered": dsdv_flow.received,
            "dsdv_generated": dsdv_source.generated,
            "dsdv_hops": [dsdv_flow.hops.minimum, dsdv_flow.hops.maximum],
            "dsdv_route_misses":
                dsdv_chain.nodes[0].counters.get("route_misses"),
            "grid_pre_break": pre_break[0] if pre_break else -1,
            "grid_post_break": grid_sink.total_received
                - (pre_break[0] if pre_break else 0),
            "grid_routes_broken": broken,
            "events": static_events + dsdv_events + grid_events,
        },
    }
    if telemetry:
        result.update(_telemetry_extras([static_hub, dsdv_hub, grid_hub]))
    return result


def fault_storm(scale: float = 1.0, *, seed: int = 37,
                check_invariants: bool = False,
                telemetry: bool = False) -> Dict[str, Any]:
    """Crash/restart + fade storm over a BSS and a DSDV mesh.

    The resilience macro: both halves take a seeded beating mid-run and
    must *recover* — post-storm delivery rate is compared against the
    pre-fault steady state and committed as the ``pdr_recovery`` stat
    (the acceptance bar is >= 0.9).  Two sub-scenarios, events summed:

    * an infrastructure **BSS** with six uplink CBR stations: one
      station crashes and reboots (exercising AP-side stale-station
      reaping), then the AP itself crashes for 300 ms — every station
      rides beacon loss into rescans with backoff, then reassociates
      when the AP reboots,
    * a 3x3 **DSDV grid** under a :class:`~repro.faults.ChaosMonkey`
      crash/restart storm across all seven relays, plus a 120 dB fade
      dropped on the center relay and a queue-pressure flood at the
      source — the mesh must reconverge and traffic resume once the
      storm lifts.

    Every fault fires through the :mod:`repro.faults` machinery into a
    shared :class:`~repro.faults.FaultLog`; its canonical JSONL trace
    is returned (``fault_trace``, outside the stats) and its
    SHA-1 is committed in the stats, so the determinism gates pin the
    *entire* fault timeline, not just the outcome counts.
    """
    # --- BSS half: station + AP crash/restart under uplink CBR -------------
    reset_allocator()
    sim = _perf_simulator(seed)
    bss = scenarios.build_infrastructure_bss(sim, station_count=6)
    log = FaultLog()
    sink = TrafficSink(sim)
    bss.ap.on_receive(sink)
    bss.ap.start_reaping(idle_timeout=0.25, interval=0.1)
    ap_address = bss.ap.address
    for station in bss.stations:
        def _uplink(payload: bytes, _station: Station = station) -> bool:
            # Guarded sender: an unassociated station (crashed, or its
            # AP is down) rejects the offer instead of raising.
            if not _station.associated:
                return False
            return _station.send(ap_address, payload)
        CbrSource(sim, _uplink, packet_bytes=200, interval=0.02, start=0.2)
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
    if check_invariants:
        _install_checker(sim, bss.medium)
    bss_hub = _install_telemetry(
        sim, bss.medium, enabled=telemetry,
        macs=[bss.ap.mac] + [station.mac for station in bss.stations])
    bss_horizon = 2.0 + 1.0 * scale
    sim.run(until=bss_horizon)
    bss_events = sim.events_executed
    bss_pre_rate = (marks["bss_pre_hi"] - marks["bss_pre_lo"]) / 0.3
    bss_post_rate = (sink.total_received - marks["bss_post_lo"]) \
        / (1.0 * scale)
    reassociations = sum(s.sta_counters.get("associations")
                         for s in bss.stations)

    # --- mesh half: chaos-monkey storm + fade over a DSDV grid -------------
    reset_allocator()
    sim = _perf_simulator(seed + 1)
    grid = scenarios.build_mesh_network(
        sim, scenarios.grid_topology(3, 3, 30.0), DsdvRouting, range_m=40.0)
    grid.start_routing()
    mesh_sink = TrafficSink(sim)
    grid.nodes[8].on_receive(mesh_sink)
    mesh_source = CbrSource(
        sim, grid.nodes[0].sender(grid.nodes[8].address),
        packet_bytes=200, interval=0.02, start=0.3)
    fader = LinkFader(grid.medium)
    monkey = ChaosMonkey(sim, targets=grid.nodes[1:8],
                         mean_interval=0.12, mean_downtime=0.2,
                         name="grid", log=log)
    schedule = FaultSchedule(sim, name="mesh-faults", log=log)
    schedule.fade(fader, grid.nodes[4].station.position, 120.0,
                  at=0.9, duration=0.4, target=grid.nodes[4].station.name)
    # Broadcast junk: drains at one (unacknowledged) transmission per
    # frame, so the flood's damage is contention + drops, not a queue
    # wedged for seconds behind retry-limited unicasts to a dead peer.
    schedule.queue_pressure(grid.nodes[0].station.mac, at=1.0, fill=1.0,
                            destination=BROADCAST)
    schedule.install()
    sim.schedule_at(0.8, monkey.start)

    def _end_storm() -> None:
        monkey.stop()
        monkey.restore_all()

    sim.schedule_at(1.6, _end_storm)

    def _mark_mesh(key: str) -> None:
        marks[key] = mesh_sink.total_received

    sim.schedule_at(0.5, _mark_mesh, "mesh_pre_lo")
    sim.schedule_at(0.8, _mark_mesh, "mesh_pre_hi")
    sim.schedule_at(2.2, _mark_mesh, "mesh_post_lo")
    if check_invariants:
        _install_checker(sim, grid.medium, meshes=(grid.nodes,))
    # The shared fault log rides the mesh hub (complete by the time it
    # finishes), folding the whole storm into ``downtime`` spans.
    mesh_hub = _install_telemetry(
        sim, grid.medium, enabled=telemetry,
        macs=[node.station.mac for node in grid.nodes], fault_log=log)
    mesh_horizon = 2.2 + 1.0 * scale
    sim.run(until=mesh_horizon)
    mesh_events = sim.events_executed
    mesh_pre_rate = (marks["mesh_pre_hi"] - marks["mesh_pre_lo"]) / 0.3
    mesh_post_rate = (mesh_sink.total_received - marks["mesh_post_lo"]) \
        / (1.0 * scale)

    trace = log.to_jsonl()
    result = {
        "stats": {
            "bss_pre_rate": bss_pre_rate,
            "bss_post_rate": bss_post_rate,
            "bss_reassociations": reassociations,
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
            "events": bss_events + mesh_events,
        },
        # Full canonical fault timeline, outside the pinned stats: the
        # determinism tests byte-compare it across seeded runs.
        "fault_trace": trace,
    }
    if telemetry:
        result.update(_telemetry_extras([bss_hub, mesh_hub]))
    return result


def wep_audit(scale: float = 1.0, *, seed: int = 0,
              telemetry: bool = False) -> Dict[str, Any]:
    """FMS key recovery against a live WEP cipher.

    The security-suite macro-benchmark: KSA/PRGA block crypt and the
    arithmetic weak-IV traffic oracle.  ``scale`` bounds the sniffing
    budget; the 40-bit key falls out within the reference budget.
    """
    budget = int((1 << 23) * max(scale, 0.25))
    key = b"\x13\x37\xbe\xef\x42"
    recovered, frames = crack_wep(WepCipher(key), max_frames=budget,
                                  check_every=1 << 21)
    result = {
        "stats": {
            "recovered": recovered == key,
            "frames_needed": frames,
        },
    }
    if telemetry:
        # Non-DES macro: no kernel to sample, but the telemetry keys
        # keep the macro surface uniform — a counter-only sim stream.
        from repro.telemetry.export import summary_table, to_jsonl
        from repro.telemetry.metrics import MetricsRegistry
        registry = MetricsRegistry()
        registry.counter("wep", "frames_sniffed").inc(frames)
        registry.counter("wep", "key_recovered").inc(
            1 if recovered == key else 0)
        result["telemetry_jsonl"] = to_jsonl(registry, stream="sim")
        result["telemetry_wall_jsonl"] = to_jsonl(registry, stream="wall")
        result["telemetry_summary"] = summary_table(registry)
    return result


def city_scale(scale: float = 1.0, *, seed: int = 41,
               bss_count: int = 24, stations_per_bss: int = 8,
               workers: int = 4,
               check_invariants: bool = False,
               telemetry: bool = False) -> Dict[str, Any]:
    """Tens of saturated BSSes on a city grid, run sharded.

    The sharded-executor headline macro: 24 cells (parameterizable to
    hundreds via ``bss_count``) with 2x2 channel reuse, partitioned
    automatically — the grid geometry puts every co-channel pair below
    the reception floor, so the partitioner proves full decoupling and
    the shards run to the horizon in a single synchronization round.
    Stats include the sharding fingerprint (shard count, rounds,
    boundary records, arrival-log SHA-1); the full canonical arrival
    log rides the result as an extra key for the determinism tests,
    outside the stats.  ``city_scale_1p`` is the identical scenario
    single-process: the differential reference.
    """
    cells = scenarios.build_city_cells(bss_count=bss_count,
                                       stations_per_bss=stations_per_bss)
    horizon = 0.1 + 0.4 * scale
    result = run_sharded(cells, seed=seed, horizon=horizon,
                         workers=workers,
                         propagation_factory=scenarios.city_propagation,
                         check_invariants=check_invariants,
                         telemetry=telemetry)
    per_cell = result["cells"]
    out = {
        "stats": {
            "rx_bytes": sum(c["rx_bytes"] for c in per_cell.values()),
            "rx_frames": sum(c["rx_frames"] for c in per_cell.values()),
            "per_bss_frames": [per_cell[name]["rx_frames"]
                               for name in sorted(per_cell)],
            "events": result["events"],
            "shards": result["shards"],
            "rounds": result["rounds"],
            "boundary_records": result["boundary_records"],
            "arrival_log_sha1": result["arrival_log_sha1"],
        },
        "arrival_log": result["arrival_log"],
    }
    if telemetry:
        out["telemetry_jsonl"] = result["telemetry_jsonl"]
        out["telemetry_wall_jsonl"] = result["telemetry_wall_jsonl"]
        out["telemetry_summary"] = {
            "merged": True, "shards": result["shards"],
            "lines": result["telemetry_jsonl"].count("\n"),
        }
    return out


def city_scale_1p(scale: float = 1.0, *, seed: int = 41,
                  bss_count: int = 24, stations_per_bss: int = 8,
                  check_invariants: bool = False,
                  telemetry: bool = False) -> Dict[str, Any]:
    """The `city_scale` scenario on one kernel (differential reference)."""
    cells = scenarios.build_city_cells(bss_count=bss_count,
                                       stations_per_bss=stations_per_bss)
    horizon = 0.1 + 0.4 * scale
    result = run_single(cells, seed=seed, horizon=horizon,
                        propagation_factory=scenarios.city_propagation,
                        check_invariants=check_invariants,
                        telemetry=telemetry)
    per_cell = result["cells"]
    out = {
        "stats": {
            "rx_bytes": sum(c["rx_bytes"] for c in per_cell.values()),
            "rx_frames": sum(c["rx_frames"] for c in per_cell.values()),
            "per_bss_frames": [per_cell[name]["rx_frames"]
                               for name in sorted(per_cell)],
            "events": result["events"],
        },
    }
    if telemetry:
        out["telemetry_jsonl"] = result["telemetry_jsonl"]
        out["telemetry_wall_jsonl"] = result["telemetry_wall_jsonl"]
        out["telemetry_summary"] = {
            "merged": False,
            "lines": result["telemetry_jsonl"].count("\n"),
        }
    return out


#: name -> scenario callable; ``run_bench.py`` and the tests iterate this.
MACROS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "dcf_saturation": dcf_saturation,
    "dcf_saturation_100": dcf_saturation_100,
    "multi_bss": multi_bss,
    "hidden_terminal": hidden_terminal,
    "interference_field": interference_field,
    "mesh_backhaul": mesh_backhaul,
    "roaming_ess": roaming_ess,
    "fault_storm": fault_storm,
    "wep_audit": wep_audit,
    "city_scale": city_scale,
    "city_scale_1p": city_scale_1p,
}
