"""One workload, measured: the timed pass and the traced pass.

The timed pass repeats set-up and run with tracing off until the time
budget is used and reports medians, every time scaled to the speed of
the host-speed reference timed next to it (``reference.py``); the traced
pass repeats the workload once at full size under the profiler and
around the service layers, and is never mixed into a timed repeat.
Both check the outputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

from repro.campaign import canonical_json
from repro.core.engine import resolve_kernel

from . import OUT_DIR, ROOT, probes, service
from .ledger import LAYERS, Spans, duration, profile_ledger
from .reference import NOMINAL_S, reference_s
from .workloads import WORKLOADS, Outcome, Workload

#: A timed pass never stops before this many repeats.
MIN_REPEATS = 3
#: Fresh interpreters a timed pass starts to sample set-up time.
SETUP_SAMPLES = 7
#: A repeat that runs longer than this has hung; it counts as failed.
REPEAT_TIMEOUT_S = 60


def declared() -> Dict[str, Any]:
    """BENCHMARK.json: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@contextmanager
def _time_limit(seconds: int) -> Iterator[None]:
    def _expired(signum: int, frame: Any) -> None:
        raise TimeoutError(f"repeat exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def _gc_paused() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _cpu() -> Dict[str, float]:
    """User plus system CPU seconds of this process and of the children
    it has reaped (``getrusage``: ``os.times`` only resolves 10 ms)."""
    usage = {"self": resource.getrusage(resource.RUSAGE_SELF),
             "children": resource.getrusage(resource.RUSAGE_CHILDREN)}
    return {who: use.ru_utime + use.ru_stime for who, use in usage.items()}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest child it has
    reaped (shard workers, campaign jobs), in MiB."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def _stats_sha1(stats: Dict[str, Any]) -> str:
    return hashlib.sha1(canonical_json(stats).encode()).hexdigest()


#: What a set-up sample runs in a fresh interpreter: everything between
#: starting Python and holding a scenario that is ready to run.
_COLD_SETUP = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{root!r}, {src!r}]
from bench.workloads import WORKLOADS
WORKLOADS[{name!r}].setup({seed}, {scale})
print(time.perf_counter() - start)
"""


def _cold_setup_s(workload: Workload, seed: int, scale: float) -> float:
    """Seconds a fresh interpreter needs to import ``repro`` and set the
    workload up.  The in-process set-ups of the repeats run on warm
    modules and take between 60 us and 90 ms: alone they are too short
    to repeat within a bound, and they miss work moved to import time.
    """
    child = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP.format(
            root=str(ROOT), src=str(ROOT / "src"), name=workload.name,
            seed=seed, scale=scale)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return float(child.stdout)


def _to_reference_speed(workload: Workload, before: float,
                        after: float) -> float:
    """What scales a time measured between two timings of the reference
    loop to reference speed (below 1 while the host runs slow); 1 for a
    workload whose time does not follow the processor's speed."""
    if not workload.processor_bound:
        return 1.0
    return 2 * NOMINAL_S / (before + after)


@dataclass
class _Repeat:
    """One set-up and run of a workload, timed by spans."""

    state: Any
    wall_s: float
    cpu_self_s: float
    cpu_children_s: float
    outcome: Outcome
    stats_sha1: str
    #: Set by the timed pass from the reference timings around the run.
    to_reference_speed: float = 1.0


def _repeat(workload: Workload, seed: int, scale: float,
            spans: Spans) -> _Repeat:
    spans.repeat += 1
    with _gc_paused(), _time_limit(REPEAT_TIMEOUT_S), spans.span("repeat"):
        with spans.span("setup"):
            state = workload.setup(seed, scale)
        before = _cpu()
        with spans.span("run") as run:
            workload.run(state)
        after = _cpu()
    outcome = workload.finish(state)
    return _Repeat(state, duration(run), after["self"] - before["self"],
                   after["children"] - before["children"], outcome,
                   _stats_sha1(outcome.stats))


def _report(workload: Workload, seed: int, mode: str, values: Dict[str, float],
            section: str, attempted: int, failed: int, failures: List[str],
            stats_sha1: Optional[str], **extra: Any) -> Dict[str, Any]:
    units = {metric["name"]: metric["unit"]
             for metric in declared()[section]}
    if set(values) != set(units):
        raise RuntimeError(
            f"BENCHMARK.json {section} and the harness disagree: "
            f"{sorted(set(values) ^ set(units))}")
    return {
        "workload": workload.name, "seed": seed, "mode": mode,
        "kernel": resolve_kernel("auto"),
        "correct": not failures and failed == 0,
        "attempted": attempted, "failed": failed, "failures": failures,
        "stats_sha1": stats_sha1,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        **extra,
    }


def timed_pass(workload: Workload, seed: int, seconds: float,
               scale: float) -> Dict[str, Any]:
    """Repeat the workload for ``seconds`` with tracing off."""
    spans = Spans()
    repeats: List[_Repeat] = []
    failures: List[str] = []
    attempted = failed = raised = 0
    started = perf_counter()
    reference_s(scale)  # untimed: the interpreter specialises the loop
    references = [reference_s(scale)]
    while raised < MIN_REPEATS and (
            len(repeats) < MIN_REPEATS
            or perf_counter() - started < seconds):
        # One state alive at a time, so peak memory does not grow with
        # the number of repeats; the last one serves the correctness pass.
        if repeats:
            repeats[-1].state = None
        try:
            repeat = _repeat(workload, seed, scale, spans)
        except Exception as exc:  # a failed operation, not a crash
            attempted += 1
            failed += 1
            raised += 1
            failures.append(f"repeat {spans.repeat} raised "
                            f"{type(exc).__name__}: {exc}")
            references.append(reference_s(scale))
            continue
        # One reference timing between two repeats serves both.
        references.append(reference_s(scale))
        repeat.to_reference_speed = _to_reference_speed(
            workload, *references[-2:])
        outcome = repeat.outcome
        problems = list(outcome.failures)
        if repeats and repeat.stats_sha1 != repeats[0].stats_sha1:
            problems.append("stats differ from repeat 1")
        attempted += outcome.operations
        failed += outcome.failed_operations \
            or (outcome.operations if problems else 0)
        failures.extend(f"repeat {spans.repeat}: {problem}"
                        for problem in problems)
        repeats.append(repeat)
    if not repeats:
        raise RuntimeError(f"{workload.name}: no repeat finished: "
                           f"{failures}")
    peak_rss_mb = _peak_rss_mb()

    raw_setups, setups = [], []
    with spans.span("setup[cold]"):
        references.append(reference_s(scale))
        for _ in range(max(1, round(SETUP_SAMPLES * min(1.0, scale)))):
            raw_setups.append(_cold_setup_s(workload, seed, scale))
            references.append(reference_s(scale))
            setups.append(raw_setups[-1] * _to_reference_speed(
                workload, *references[-2:]))

    verify = service.VERIFY.get(workload.name)
    if verify is not None and repeats[-1].state is not None:
        with spans.span("verify"):
            failures.extend(f"correctness pass: {problem}" for problem
                            in verify(repeats[-1].state, seed, scale))

    raw = {
        "wall_s": [repeat.wall_s for repeat in repeats],
        "cpu_s": [repeat.cpu_self_s + repeat.cpu_children_s
                  for repeat in repeats],
        "setup_s": raw_setups,
    }
    samples = {
        "wall_s": [repeat.wall_s * repeat.to_reference_speed
                   for repeat in repeats],
        "cpu_s": [cpu_s * repeat.to_reference_speed
                  for cpu_s, repeat in zip(raw["cpu_s"], repeats)],
        "setup_s": setups,
        "peak_rss_mb": [peak_rss_mb],
    }
    spread = {name: {"median": median(values), "min": min(values),
                     "max": max(values), "n": len(values)}
              for name, values in samples.items()}
    return _report(
        workload, seed, "timed",
        {name: entry["median"] for name, entry in spread.items()},
        "end_to_end", attempted, failed, failures, repeats[0].stats_sha1,
        spread=spread,
        # As the clock read them, and what the host was doing meanwhile.
        raw_median={name: median(values) for name, values in raw.items()},
        reference={"applied": workload.processor_bound,
                   "nominal_s": NOMINAL_S, "median_s": median(references),
                   "min_s": min(references), "max_s": max(references),
                   "n": len(references)})


def traced_pass(workload: Workload, seed: int, scale: float,
                build_kernel_s: float) -> Dict[str, Any]:
    """One full-size repeat per measurement, tracing on."""
    spans = Spans()
    plain = _repeat(workload, seed, scale, spans)
    outcome = plain.outcome
    failures = list(outcome.failures)
    info = {"wall_s": plain.wall_s, "cpu_self_s": plain.cpu_self_s,
            "cpu_children_s": plain.cpu_children_s,
            "ledger_plain_s": plain.wall_s}

    # The ledger: profile the run, or its in-process stand-in when the
    # run happens in other processes; the same call untraced gives the
    # tracing overhead.
    target = workload.ledger_run or workload.run
    if workload.ledger_run is not None:
        state = workload.setup(seed, scale)
        with _gc_paused(), spans.span("ledger[plain]") as span:
            target(state)
        info["ledger_plain_s"] = duration(span)
    state = workload.setup(seed, scale)
    with _gc_paused(), spans.span("ledger[traced]"):
        ledger = profile_ledger(lambda: target(state))

    counters = outcome.counters
    delivered = counters["mac.msdu_delivered"] or sum(
        cell["rx_frames"] for cell in outcome.stats.get("cells", {}).values())
    values: Dict[str, float] = dict(counters)
    values.update({
        "core.events_per_delivered":
            counters["core.events"] / delivered if delivered else 0.0,
        "core.events_per_s": counters["core.events"] / plain.wall_s,
        "core.build_kernel_s": build_kernel_s,
        "mac.delivery_ratio":
            counters["mac.msdu_delivered"] / counters["mac.tx_data"]
            if counters["mac.tx_data"] else 0.0,
        "trace.overhead_ratio": ledger["wall_s"] / info["ledger_plain_s"],
    })
    for layer in LAYERS:
        values[f"{layer}.self_s"] = ledger["self_s"].get(layer, 0.0)
        values[f"{layer}.calls"] = ledger["calls"].get(layer, 0)

    with spans.span("probes"):
        values["core.dispatch_ns"] = probes.dispatch_ns(scale)
        values["phy.channel.transmit_us"] = probes.transmit_us(scale)
        values["campaign.record_ms"] = probes.record_ms(
            OUT_DIR / f"probe_{workload.name}")

    values.update(dict.fromkeys(service.SERVICE_NAMES, 0))
    extras = service.EXTRAS.get(workload.name)
    if extras is not None:
        with spans.span("extras"):
            values.update(extras(plain.state, seed, scale, spans, info))
    verify = service.VERIFY.get(workload.name)
    if verify is not None:
        with spans.span("verify"):
            failures.extend(f"correctness pass: {problem}" for problem
                            in verify(plain.state, seed, scale))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace_{workload.name}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "scale": scale,
        "kernel": resolve_kernel("auto"),
        "spans": spans.as_json(), "ledger": ledger}, indent=1) + "\n")
    failed = outcome.failed_operations \
        or (outcome.operations if failures else 0)
    return _report(workload, seed, "traced", values, "per_layer",
                   outcome.operations, failed, failures, plain.stats_sha1,
                   trace_file=str(trace_path.relative_to(ROOT)))


def run_workload(name: str, seed: int, seconds: float, scale: float,
                 trace: bool, build_kernel_s: float) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    try:
        if trace:
            return traced_pass(workload, seed, scale, build_kernel_s)
        return timed_pass(workload, seed, seconds, scale)
    finally:
        for scratch in OUT_DIR.glob("campaign_*"):
            shutil.rmtree(scratch, ignore_errors=True)
