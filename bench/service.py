"""Correctness passes and service-layer measurements.

``VERIFY`` holds the once-per-invocation output checks that cost a
second run (``city_coupled`` against ``run_single``, ``campaign_grid``
across ``jobs`` and across a resume).  ``EXTRAS`` holds what the traced
pass measures around the ``parallel``, ``campaign`` and ``telemetry``
service layers, from spans the benchmark records around its own calls.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

from repro.campaign import expand_grid, load_spec, read_store, \
    run_campaign, validate_spec
from repro.core.engine import Simulator
from repro.parallel import partition_cells
from repro.telemetry import Telemetry

from . import workloads as W
from .ledger import Spans, duration

#: ``rx_frames`` / ``rx_bytes`` each cell of the sharded run may differ
#: from ``run_single`` by: the repository's declared weakly-coupled
#: tolerance (tests/parallel/test_differential.py), two frames.
CITY_FRAMES_TOL = 2
CITY_BYTES_TOL = 2 * 800

#: Every service-layer metric the traced pass can report; a workload
#: that does not run a layer reports 0 for it.
SERVICE_NAMES = (
    "parallel.rounds", "parallel.boundary_records", "parallel.partition_s",
    "parallel.single_wall_s", "parallel.slowdown_vs_single",
    "parallel.round_us", "parallel.coordinator_cpu_s",
    "parallel.workers_cpu_s", "parallel.worker_busy_s",
    "parallel.worker_idle_s",
    "campaign.jobs", "campaign.load_expand_s", "campaign.job_inproc_ms",
    "campaign.job_pooled_ms", "campaign.overhead_ms_per_job",
    "campaign.speedup_jobs2", "campaign.resume_s", "campaign.read_store_s",
    "campaign.manifest_bytes", "campaign.store_bytes",
    "telemetry.armed_ratio", "telemetry.c_kernel_kept",
    "telemetry.sim_jsonl_bytes",
)


# --- correctness passes -----------------------------------------------------

def _verify_city(state: Any, seed: int, scale: float) -> List[str]:
    single = W.city_single(state)
    failures = []
    for name, oracle in sorted(single["cells"].items()):
        mine = state.result["cells"][name]
        if abs(mine["rx_frames"] - oracle["rx_frames"]) > CITY_FRAMES_TOL \
                or abs(mine["rx_bytes"] - oracle["rx_bytes"]) \
                > CITY_BYTES_TOL:
            failures.append(
                f"cell {name}: sharded {mine} is outside the weakly-coupled "
                f"tolerance of run_single {oracle}")
    return failures


def _store_bytes(result: Any) -> bytes:
    return result.store_path.read_bytes() + result.csv_path.read_bytes()


def _verify_campaign(state: Any, seed: int, scale: float) -> List[str]:
    failures = []
    before = _store_bytes(state.result)
    resumed = run_campaign(state.spec, state.directory / "store",
                           jobs=W.CAMPAIGN_JOBS)
    if resumed.ran != 0:
        failures.append(f"resume pass executed {resumed.ran} jobs")
    if _store_bytes(resumed) != before:
        failures.append("resume pass changed the store")
    # jobs=1 against jobs=2 on a quarter-size grid of the same shape.
    spec = validate_spec(W.campaign_spec(
        seed, max(2, round(W.CAMPAIGN_SEEDS / 4 * scale))))
    stores = []
    for jobs in (1, W.CAMPAIGN_JOBS):
        result = run_campaign(spec, state.directory / f"jobs{jobs}",
                              jobs=jobs, fresh=True)
        if not result.ok:
            failures.append(f"jobs={jobs} pass failed {result.failed[:1]}")
        stores.append(_store_bytes(result))
    if stores[0] != stores[1]:
        failures.append("store differs between jobs=1 and jobs=2")
    return failures


VERIFY: Dict[str, Callable[[Any, int, float], List[str]]] = {
    "city_coupled": _verify_city,
    "campaign_grid": _verify_campaign,
}


# --- traced-pass extras -----------------------------------------------------

def _city_extras(state: Any, seed: int, scale: float, spans: Spans,
                 info: Dict[str, float]) -> Dict[str, float]:
    result = state.result
    with spans.span("parallel.partition_cells") as partition:
        partition_cells(state.cells, W.city_propagation(),
                        workers=W.CITY_WORKERS, manual=state.manual)
    # Busy/idle need the workers' own clocks: one more run with the
    # telemetry wall stream on, never mixed into a timed repeat.
    with spans.span("parallel.run_sharded[telemetry]"):
        observed = W.city_sharded(state, telemetry=True)
    gauges = {"worker_busy_seconds": 0.0, "worker_idle_seconds": 0.0}
    for line in observed["telemetry_wall_jsonl"].splitlines():
        record = json.loads(line)
        if record.get("name") in gauges:
            gauges[record["name"]] += float(record["value"])
    return {
        "parallel.rounds": result["rounds"],
        "parallel.boundary_records": result["boundary_records"],
        "parallel.partition_s": duration(partition),
        "parallel.single_wall_s": info["ledger_plain_s"],
        "parallel.slowdown_vs_single": info["wall_s"]
        / info["ledger_plain_s"],
        "parallel.round_us": info["wall_s"] / result["rounds"] * 1e6,
        "parallel.coordinator_cpu_s": info["cpu_self_s"],
        "parallel.workers_cpu_s": info["cpu_children_s"],
        "parallel.worker_busy_s": gauges["worker_busy_seconds"],
        "parallel.worker_idle_s": gauges["worker_idle_seconds"],
    }


def _campaign_extras(state: Any, seed: int, scale: float, spans: Spans,
                     info: Dict[str, float]) -> Dict[str, float]:
    jobs = len(state.jobs)
    spec_path = state.directory / "spec.json"
    with spans.span("campaign.load_spec+expand_grid") as load_expand:
        expand_grid(load_spec(spec_path))
    with spans.span("campaign.run_campaign[jobs=1]") as serial:
        run_campaign(state.spec, state.directory / "serial", jobs=1,
                     fresh=True)
    with spans.span("campaign.run_campaign[resume]") as resume:
        resumed = run_campaign(state.spec, state.directory / "store",
                               jobs=W.CAMPAIGN_JOBS)
    with spans.span("campaign.read_store") as read:
        read_store(resumed.store_path)
    inproc_ms = info["ledger_plain_s"] / min(32, jobs) * 1e3
    pooled_ms = duration(serial) / jobs * 1e3
    return {
        "campaign.jobs": jobs,
        "campaign.load_expand_s": duration(load_expand),
        "campaign.job_inproc_ms": inproc_ms,
        "campaign.job_pooled_ms": pooled_ms,
        "campaign.overhead_ms_per_job": pooled_ms - inproc_ms,
        "campaign.speedup_jobs2": duration(serial) / info["wall_s"],
        "campaign.resume_s": duration(resume),
        "campaign.read_store_s": duration(read),
        "campaign.manifest_bytes": resumed.manifest_path.stat().st_size,
        "campaign.store_bytes": resumed.store_path.stat().st_size,
    }


def _telemetry_extras(state: Any, seed: int, scale: float, spans: Spans,
                      info: Dict[str, float]) -> Dict[str, float]:
    """``dense_cell`` again with a fully armed telemetry hub sampling
    every 50 ms: what observing costs, and whether it still runs on the
    C kernel."""
    workload = W.WORKLOADS["dense_cell"]
    armed = workload.setup(seed, scale)
    macs = [armed.receiver] + armed.senders
    hub = Telemetry(armed.sim, enabled=True, sample_interval=0.05)
    hub.instrument_kernel(dispatch=True)
    hub.instrument_medium(armed.medium)
    hub.instrument_macs(macs)
    hub.instrument_radios([mac.radio for mac in macs])
    hub.install()
    # The dispatch probe shadows ``Simulator.run`` with its own Python
    # loop, whatever ``sim.kernel`` still says.
    c_kernel_kept = armed.sim.kernel == "c" and \
        getattr(armed.sim.run, "__func__", None) is Simulator.run
    with spans.span("telemetry.run[armed]") as run:
        workload.run(armed)
    hub.finish()
    return {
        "telemetry.armed_ratio": duration(run) / info["wall_s"],
        "telemetry.c_kernel_kept": int(c_kernel_kept),
        "telemetry.sim_jsonl_bytes": len(hub.sim_jsonl().encode()),
    }


EXTRAS: Dict[str, Callable[..., Dict[str, float]]] = {
    "dense_cell": _telemetry_extras,
    "city_coupled": _city_extras,
    "campaign_grid": _campaign_extras,
}
