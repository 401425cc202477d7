"""The five benchmark workloads.

Each workload is a closed batch: ``setup(seed, scale)`` generates the
inputs from the seed and builds the scenario, ``run(state)`` executes it
to completion, ``finish(state)`` reads the simulated statistics and the
per-layer counters through public attributes and checks the outputs.
``README.md`` records why each one exists and which layer it stresses.

Everything here goes through documented public API only
(``repro.scenarios``, ``repro.parallel``, ``repro.campaign`` and the
``Simulator``/``Medium``/``Radio``/``DcfMac``/``MacListener``
constructors); all runs are tracing-off, telemetry-off, exact-mode and
on the kernel ``Simulator(kernel="auto")`` resolves to.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import scenarios
from repro.adversary.emitters import PeriodicJammer
from repro.campaign import expand_grid, load_spec, run_campaign, run_job
from repro.core.engine import Simulator
from repro.core.topology import Position, random_disc_layout
from repro.core.trace import TraceLog
from repro.mac.addresses import MacAddress, allocate_address, \
    reset_allocator
from repro.mac.dcf import DcfConfig, DcfMac, MacListener
from repro.mac.rate_adapt import fixed_rate_factory
from repro.mobility.models import LinearMobility
from repro.net.roaming import RoamingPolicy
from repro.net.station import Station
from repro.parallel import CellSpec, partition_cells, run_sharded, \
    run_single
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss, FreeSpace
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.routing import DsdvRouting
from repro.traffic.generators import CbrSource
from repro.traffic.sink import TrafficSink

from . import OUT_DIR

#: The counters every workload reports (0 where its layers do nothing).
COUNTER_NAMES = (
    "core.events", "core.heap_depth_end",
    "phy.channel.plan_hits", "phy.channel.plan_misses",
    "phy.channel.link_misses",
    "mac.msdu_delivered", "mac.tx_data", "mac.ack_timeouts",
    "mac.rx_corrupt",
    "routing.forwarded", "routing.route_misses", "routing.control_tx",
    "routing.routes_broken",
    "net.roams", "net.associations",
    "traffic.offered", "traffic.delivered",
    "adversary.bursts",
)


@dataclass
class Outcome:
    """What one finished repeat produced."""

    #: Seed-deterministic simulated statistics (hashed into stats_sha1).
    stats: Dict[str, Any]
    #: Per-layer counters, keyed by ``COUNTER_NAMES``.
    counters: Dict[str, float]
    #: Output checks that did not hold (empty when the run is correct).
    failures: List[str] = field(default_factory=list)
    #: Operations this repeat stands for (campaign_grid: one per job).
    operations: int = 1
    #: How many of them failed on their own; a repeat with ``failures``
    #: and none of these counts as failed whole.
    failed_operations: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, float], Any]
    run: Callable[[Any], None]
    finish: Callable[[Any], Outcome]
    #: What the traced pass profiles for the layer ledger; ``run`` unless
    #: the run happens in other processes the profiler cannot see.
    ledger_run: Optional[Callable[[Any], None]] = None
    #: Whether the run's time follows the speed of the host's processor,
    #: so that the timed pass reports it at reference speed
    #: (``reference.py``).  Not ``campaign_grid``: it waits on fork, pipes
    #: and fsync, and took 2.05 s both with the reference loop at 0.13 s
    #: and at 0.17 s; scaled, its ten-run spread doubled (4 % to 8 %).
    processor_bound: bool = True


def _simulator(seed: int) -> Simulator:
    return Simulator(seed=seed, trace=TraceLog(enabled=False))


def _counters(*parts: Dict[str, float]) -> Dict[str, float]:
    """Merge ``parts`` over a zero for every name in ``COUNTER_NAMES``."""
    merged = dict.fromkeys(COUNTER_NAMES, 0)
    for part in parts:
        unknown = set(part) - set(COUNTER_NAMES)
        if unknown:
            raise KeyError(f"undeclared counters: {sorted(unknown)}")
        merged.update(part)
    return merged


def _sim_counters(sims, media) -> Dict[str, float]:
    return {
        "core.events": sum(sim.events_executed for sim in sims),
        "core.heap_depth_end": sum(sim.heap_depth for sim in sims),
        "phy.channel.plan_hits": sum(m.plan_hits for m in media),
        "phy.channel.plan_misses": sum(m.plan_misses for m in media),
        "phy.channel.link_misses": sum(m.links.misses for m in media),
    }


def _mac_counters(macs) -> Dict[str, float]:
    return {f"mac.{name}": sum(mac.counters.get(name) for mac in macs)
            for name in ("msdu_delivered", "tx_data", "ack_timeouts",
                         "rx_corrupt")}


# --- saturated single cell (dense_cell, emitter_field) ----------------------

class _Refill(MacListener):
    """Keeps a sender's queue non-empty: saturation traffic."""

    def __init__(self, mac: DcfMac, destination: MacAddress, payload: bytes):
        self.mac = mac
        self.destination = destination
        self.payload = payload

    def mac_tx_complete(self, msdu: Any, success: bool) -> None:
        self.mac.send(self.destination, self.payload)


class _Count(MacListener):
    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0

    def mac_receive(self, source: Any, destination: Any, payload: bytes,
                    meta: Any) -> None:
        self.frames += 1
        self.bytes += len(payload)


@dataclass
class _CellState:
    sim: Simulator
    medium: Medium
    receiver: DcfMac
    senders: List[DcfMac]
    counter: _Count
    horizon: float
    emitters: List[PeriodicJammer] = field(default_factory=list)


#: Simulated seconds run inside set-up: long enough that every sender
#: has transmitted once, so link budgets and fan-out plans are compiled
#: before the timed run starts.
_CELL_WARMUP = 0.02


def _saturated_cell(seed: int, stations: int, propagation,
                    horizon: float) -> _CellState:
    """One receiver, ``stations`` saturated 802.11b senders of 800 B
    MSDUs placed from the seed on a 10 m disc around it."""
    reset_allocator()
    sim = _simulator(seed)
    medium = Medium(sim, propagation)
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    receiver = DcfMac(sim, Radio("rx", medium, DOT11B, Position(0, 0, 0)),
                      allocate_address(), config=config,
                      rate_factory=factory)
    counter = _Count()
    receiver.listener = counter
    payload = bytes(800)
    senders = []
    layout = random_disc_layout(stations, 10.0, random.Random(seed))
    for index, position in enumerate(layout):
        mac = DcfMac(sim, Radio(f"tx{index}", medium, DOT11B, position),
                     allocate_address(), config=config,
                     rate_factory=factory)
        mac.listener = _Refill(mac, receiver.address, payload)
        for _ in range(4):
            mac.send(receiver.address, payload)
        senders.append(mac)
    return _CellState(sim, medium, receiver, senders, counter, horizon)


def _cell_run(state: _CellState) -> None:
    state.sim.run(until=state.horizon)


def _cell_finish(state: _CellState) -> Outcome:
    macs = [state.receiver] + state.senders
    counters = _counters(
        _sim_counters([state.sim], [state.medium]), _mac_counters(macs),
        {"adversary.bursts": sum(e.counters.get("bursts")
                                 for e in state.emitters)})
    stats = {"rx_frames": state.counter.frames,
             "rx_bytes": state.counter.bytes,
             "events": state.sim.events_executed,
             "per_sender_delivered": [mac.counters.get("msdu_delivered")
                                      for mac in state.senders],
             "bursts": counters["adversary.bursts"]}
    failures = []
    if state.counter.frames <= 0:
        failures.append("receiver got no frame")
    if state.emitters and counters["adversary.bursts"] <= 0:
        failures.append("emitters never fired")
    return Outcome(stats, counters, failures)


def _dense_cell_setup(seed: int, scale: float) -> _CellState:
    state = _saturated_cell(seed, 100, scenarios.city_propagation(),
                            horizon=_CELL_WARMUP + 1.6 * scale)
    state.sim.run(until=_CELL_WARMUP)
    return state


def _emitter_field_setup(seed: int, scale: float) -> _CellState:
    # FixedLoss(50): every emitter arrives at power_dbm - 50 at every
    # victim.  DOT11B's noise floor is about -93.6 dBm, CCA -82 dBm and
    # the reception floor -110 dBm, so the tiers sit at -96 dBm (energy
    # only), -75 dBm (CCA busy) and -40 dBm (SINR-corrupting).
    state = _saturated_cell(seed, 20, FixedLoss(50.0),
                            horizon=_CELL_WARMUP + 1.0 * scale)
    rng = random.Random(seed ^ 0x5EED)
    tiers = (("weak", 20, -46.0, 500e-6, 1500e-6),
             ("strong", 4, -25.0, 500e-6, 8e-3),
             ("corrupt", 2, 10.0, 200e-6, 5e-3))
    for tier, count, power_dbm, on_time, period in tiers:
        for index in range(count):
            # Evenly staggered phases plus seeded jitter: about a third
            # of the weak tier is on the air at any instant.
            offset = period * (index + rng.random()) / count
            state.emitters.append(PeriodicJammer(
                state.sim, state.medium,
                Position(30.0 + index, 30.0 + rng.random(), 0),
                power_dbm=power_dbm, on_time=on_time, period=period,
                offset=offset, name=f"{tier}{index}"))
    for emitter in state.emitters:
        emitter.start()
    state.sim.run(until=_CELL_WARMUP)
    return state


# --- mesh_roam --------------------------------------------------------------

_MESH_BREAK_AT = 1.0
_SERVER = MacAddress.from_string("00:10:20:30:40:50")


@dataclass
class _MeshRoamState:
    grid_sim: Simulator
    grid: Any
    grid_sources: List[CbrSource]
    grid_sink: TrafficSink
    grid_horizon: float
    at_break: List[int]
    ess_sim: Simulator
    corridor: Any
    walkers: List[Station]
    ess_sources: List[CbrSource]
    ess_sinks: List[TrafficSink]
    ess_horizon: float


def _mesh_roam_setup(seed: int, scale: float) -> _MeshRoamState:
    rng = random.Random(seed)

    # Half one: a 4x4 DSDV grid, every node sending CBR to the far
    # corner gateway.  Seeded +-0.5 m jitter keeps the 4-neighbour graph
    # (pitch 30 m, range 40 m, diagonal 42 m).
    reset_allocator()
    grid_sim = _simulator(seed)
    positions = [Position(p.x + rng.uniform(-0.5, 0.5),
                          p.y + rng.uniform(-0.5, 0.5), 0.0)
                 for p in scenarios.grid_topology(4, 4, 30.0)]
    grid = scenarios.build_mesh_network(grid_sim, positions, DsdvRouting,
                                        range_m=40.0)
    grid.start_routing()
    gateway = grid.nodes[-1]
    grid_sink = TrafficSink(grid_sim)
    gateway.on_receive(grid_sink)
    grid_sources = [
        CbrSource(grid_sim, node.sender(gateway.address), packet_bytes=200,
                  interval=0.04, start=0.4 + 0.002 * index)
        for index, node in enumerate(grid.nodes[:-1])]
    at_break: List[int] = []

    def _break_active_relay() -> None:
        entry = grid.nodes[0].protocol.routes().get(gateway.address)
        if entry is None:
            return  # finish() reports the missing break
        relay = next(node for node in grid.nodes
                     if node.address == entry.next_hop)
        relay.station.position = Position(10_000.0, 10_000.0, 0.0)
        at_break.append(grid_sink.total_received)

    grid_sim.schedule_at(_MESH_BREAK_AT, _break_active_relay)

    # Half two: a 3-AP corridor with walking stations under downlink
    # CBR; every 100 ms mobility tick invalidates links and plans.
    reset_allocator()
    ess_sim = _simulator(seed + 1)
    corridor = scenarios.build_ess(ess_sim, ap_count=3, spacing_m=80.0)
    standard = corridor.aps[0].radio.standard
    policy = RoamingPolicy(low_snr_threshold_db=28.0, hysteresis_db=3.0,
                           min_dwell=0.5)
    walkers = []
    for index in range(4):
        walker = Station(ess_sim, corridor.medium, standard,
                         Position(2.0 + 4.0 * index + rng.random(),
                                  rng.uniform(-2.0, 2.0), 0),
                         name=f"walker{index}", roaming_policy=policy)
        walker.associate("repro-ess")
        walkers.append(walker)
    scenarios.associate_all(ess_sim, walkers, timeout=5.0)
    ess_sources, ess_sinks = [], []
    for index, walker in enumerate(walkers):
        sink = TrafficSink(ess_sim)
        walker.on_receive(sink)
        ess_sinks.append(sink)

        def _downlink(payload: bytes, _walker: Station = walker) -> bool:
            corridor.ess.ds.inject_from_portal(_SERVER, _walker.address,
                                               payload)
            return True

        ess_sources.append(CbrSource(ess_sim, _downlink, packet_bytes=800,
                                     interval=0.02))
        LinearMobility(ess_sim, walker,
                       Position(170.0, walker.position.y, 0),
                       speed_mps=7.0 + 0.5 * index + rng.random(),
                       tick=0.1).start()
    return _MeshRoamState(
        grid_sim, grid, grid_sources, grid_sink,
        _MESH_BREAK_AT + 0.2 + 1.8 * scale, at_break,
        ess_sim, corridor, walkers, ess_sources, ess_sinks,
        ess_sim.now + 1.0 + 21.0 * scale)


def _mesh_roam_run(state: _MeshRoamState) -> None:
    state.grid_sim.run(until=state.grid_horizon)
    state.ess_sim.run(until=state.ess_horizon)


def _mesh_roam_finish(state: _MeshRoamState) -> Outcome:
    nodes = state.grid.nodes
    walkers = state.walkers
    macs = [node.station.mac for node in nodes] \
        + [walker.mac for walker in walkers] \
        + [ap.mac for ap in state.corridor.aps]
    sources = state.grid_sources + state.ess_sources
    sinks = [state.grid_sink] + state.ess_sinks
    counters = _counters(
        _sim_counters([state.grid_sim, state.ess_sim],
                      [state.grid.medium, state.corridor.medium]),
        _mac_counters(macs),
        {f"routing.{name}": sum(node.counters.get(name) for node in nodes)
         for name in ("forwarded", "route_misses", "control_tx",
                      "routes_broken")},
        {"net.roams": sum(w.sta_counters.get("roams") for w in walkers),
         "net.associations": sum(w.sta_counters.get("associations")
                                 for w in walkers),
         "traffic.offered": sum(source.generated for source in sources),
         "traffic.delivered": sum(sink.total_received for sink in sinks)})
    grid_flows = [state.grid_sink.flow(source.flow_id)
                  for source in state.grid_sources]
    pre_break = state.at_break[0] if state.at_break else -1
    stats = {
        "grid_delivered": [flow.received if flow else 0
                           for flow in grid_flows],
        "grid_pre_break": pre_break,
        "grid_post_break": state.grid_sink.total_received - max(pre_break, 0),
        "routes_broken": counters["routing.routes_broken"],
        "walker_delivered": [sink.total_received
                             for sink in state.ess_sinks],
        "roams": counters["net.roams"],
        "events": counters["core.events"],
    }
    failures = []
    if not state.at_break:
        failures.append("grid had not converged when the relay was due "
                        "to break")
    if any(count <= 0 for count in stats["grid_delivered"]):
        failures.append("a mesh flow delivered nothing")
    if stats["grid_post_break"] <= 0:
        failures.append("mesh delivery did not resume after the relay "
                        "break")
    if any(count <= 0 for count in stats["walker_delivered"]):
        failures.append("a walking station received nothing")
    return Outcome(stats, counters, failures)


# --- city_coupled -----------------------------------------------------------

CITY_WORKERS = 2


def city_propagation() -> FreeSpace:
    """Free-space loss: 20 dBm across 10 km of 2.4 GHz lands at about
    -100 dBm, above the -110 dBm reception floor, so co-channel cells in
    the two districts couple.  Module-level because the executors take
    a factory each worker calls."""
    return FreeSpace(DOT11B.band_hz)


@dataclass
class _CityState:
    seed: int
    cells: List[CellSpec]
    manual: Dict[str, int]
    horizon: float
    result: Optional[Dict[str, Any]] = None


def _city_setup(seed: int, scale: float) -> _CityState:
    rng = random.Random(seed)
    cells, manual = [], {}
    for district, x0 in enumerate((0.0, 10_000.0)):
        for index, channel in enumerate((1, 6, 11, 14)):
            name = f"d{district}c{index}"
            cells.append(CellSpec(
                name=name, channel=channel,
                center=Position(x0 + 120.0 * index + rng.uniform(-5, 5),
                                rng.uniform(-5, 5), 0.0),
                radius_m=12.0, build=scenarios.saturated_cell(6),
                weight=6.0))
            manual[name] = district
    plan = partition_cells(cells, city_propagation(), workers=CITY_WORKERS,
                           manual=manual)
    if not plan.coupled:
        raise RuntimeError("city_coupled districts are not coupled")
    return _CityState(seed, cells, manual, horizon=0.5 * scale)


@contextmanager
def _on_one_cpu() -> Iterator[None]:
    """Pin this process, and so the workers it forks, to one CPU.

    A coupled round is two pipe round trips with almost no work between
    them.  Across two cores of this VM every wake-up costs an
    inter-processor interrupt whose latency follows the host's load:
    unpinned, a 0.35 s horizon took 2.6 to 4.0 s and its median moved
    23 % between two sets of ten runs.  On one CPU a wake-up is a plain
    context switch, and wall time is the CPU cost of the rounds (the
    same horizon: 1.65 s, +-5 %) — the part a change to the executor
    can move.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def city_sharded(state: _CityState, telemetry: bool = False
                 ) -> Dict[str, Any]:
    with _on_one_cpu():
        return run_sharded(
            state.cells, seed=state.seed, horizon=state.horizon,
            workers=CITY_WORKERS, manual=state.manual,
            propagation_factory=city_propagation, telemetry=telemetry)


def _city_run(state: _CityState) -> None:
    state.result = city_sharded(state)


def city_single(state: _CityState) -> Dict[str, Any]:
    """The same cells on one kernel: reference and slowdown base."""
    return run_single(state.cells, seed=state.seed, horizon=state.horizon,
                      propagation_factory=city_propagation)


def _city_finish(state: _CityState) -> Outcome:
    result = state.result
    per_cell = result["cells"]
    stats = {"cells": {name: per_cell[name] for name in sorted(per_cell)},
             "events": result["events"], "rounds": result["rounds"],
             "boundary_records": result["boundary_records"],
             "arrival_log_sha1": result["arrival_log_sha1"]}
    counters = _counters({"core.events": result["events"]})
    failures = [f"cell {name} delivered nothing"
                for name, cell in sorted(per_cell.items())
                if cell["rx_frames"] <= 0]
    if result["rounds"] <= 1 or result["boundary_records"] <= 0:
        failures.append(
            f"run was not coupled: rounds={result['rounds']}, "
            f"boundary_records={result['boundary_records']}")
    return Outcome(stats, counters, failures)


# --- campaign_grid ----------------------------------------------------------

CAMPAIGN_JOBS = 2
#: Seeds per RTS threshold at scale 1: a 4 x 64 = 256-job grid.
CAMPAIGN_SEEDS = 64
_CAMPAIGN_NAME = "bench_grid"
_RTS_THRESHOLDS = (2347, 1024, 512, 256)


@dataclass
class _CampaignState:
    directory: pathlib.Path
    spec: Dict[str, Any]
    jobs: List[Any]
    result: Any = None


def campaign_spec(seed: int, seeds_per_point: int) -> Dict[str, Any]:
    """The raw spec: ``hidden_terminal`` for 0.1 s, four RTS thresholds
    times ``seeds_per_point`` seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return {
        "campaign": {"name": _CAMPAIGN_NAME},
        "scenario": {"builder": "hidden_terminal", "horizon": 0.1,
                     "seed": seed},
        "traffic": {"kind": "saturate", "payload_bytes": 800, "depth": 3},
        "sweep": {"scenario.params.rts_threshold_bytes":
                  list(_RTS_THRESHOLDS)},
        "seeds": {"list": rng.sample(range(1, 1 << 20), seeds_per_point)},
    }


def _campaign_directory() -> pathlib.Path:
    """A fresh, empty store directory under ``bench/out`` (the harness
    removes them when the invocation ends)."""
    OUT_DIR.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="campaign_", dir=OUT_DIR))


def _campaign_setup(seed: int, scale: float) -> _CampaignState:
    directory = _campaign_directory()
    spec_path = directory / "spec.json"
    spec_path.write_text(json.dumps(
        campaign_spec(seed, max(2, round(CAMPAIGN_SEEDS * scale)))))
    spec = load_spec(spec_path)
    return _CampaignState(directory, spec, expand_grid(spec))


def _campaign_run(state: _CampaignState) -> None:
    state.result = run_campaign(state.spec, state.directory / "store",
                                jobs=CAMPAIGN_JOBS, fresh=True)


def _campaign_ledger_run(state: _CampaignState) -> None:
    for job in state.jobs[:32]:
        run_job(job.spec)


def _campaign_finish(state: _CampaignState) -> Outcome:
    result = state.result
    rows = result.rows
    bad = [row["label"] for row in rows if row["status"] != "done"]
    stats = {"rows": [[row["key"], row.get("stats")] for row in rows]}
    failures = []
    if len(rows) != len(state.jobs):
        failures.append(f"{len(rows)} rows for {len(state.jobs)} jobs")
    if bad:
        failures.append(f"{len(bad)} jobs not done, first {bad[0]}")
    if result.ran != len(state.jobs):
        failures.append(f"fresh pass ran {result.ran} of "
                        f"{len(state.jobs)} jobs")
    return Outcome(stats, _counters(), failures,
                   operations=len(state.jobs), failed_operations=len(bad))


#: Why each one exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dense_cell", _dense_cell_setup, _cell_run, _cell_finish),
    Workload("emitter_field", _emitter_field_setup, _cell_run,
             _cell_finish),
    Workload("mesh_roam", _mesh_roam_setup, _mesh_roam_run,
             _mesh_roam_finish),
    Workload("city_coupled", _city_setup, _city_run, _city_finish,
             ledger_run=city_single),
    Workload("campaign_grid", _campaign_setup, _campaign_run,
             _campaign_finish, ledger_run=_campaign_ledger_run,
             processor_bound=False),
)}
