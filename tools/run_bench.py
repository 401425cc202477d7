#!/usr/bin/env python3
"""Performance harness runner: times the macro-scenarios and emits
``BENCH_<name>.json`` so every PR has a perf trajectory to beat.

Usage::

    # Full run: median-of-5, writes BENCH_*.json to the repo root.
    PYTHONPATH=src python tools/run_bench.py

    # Subset / tuning: --only filters by exact name or glob pattern, so
    # a heavyweight macro (the interference_field family) can be
    # iterated on without re-running the full suite:
    PYTHONPATH=src python tools/run_bench.py --only dcf_saturation --repeat 7
    PYTHONPATH=src python tools/run_bench.py --only 'interference_field*'

    # Embed a cProfile top-10 (cumulative) per scenario in the BENCH
    # JSON, from one extra untimed run, so perf PRs can cite where the
    # remaining time goes.  The full profile additionally lands in a
    # standalone BENCH_<name>.profile.txt sidecar next to the JSON:
    PYTHONPATH=src python tools/run_bench.py --profile

    # Run with the telemetry subsystem armed: each scenario gets the
    # repro.telemetry probes/sampler and the BENCH record gains a
    # "telemetry" summary key (informational — the regression gate
    # never reads it).  Mutually exclusive with --check, which must
    # measure the production posture:
    PYTHONPATH=src python tools/run_bench.py --telemetry

    # CI regression gate: reduced scale, compares work/sec against the
    # committed baseline, exits non-zero on a >25% regression.
    PYTHONPATH=src python tools/run_bench.py --check

    # Refresh the committed baseline on the current machine:
    PYTHONPATH=src python tools/run_bench.py --check --update-baseline

Output format (one JSON file per scenario)::

    {
      "name": "dcf_saturation",
      "scale": 1.0,
      "repeats": 5,
      "wall_s": 0.81,            # median of repeats
      "work": 204888,
      "work_unit": "events",
      "work_per_sec": 252948.0,
      "stats": {...}             # seed-deterministic outcome fingerprint
    }

``stats`` must be identical run-to-run for the same seed (that is the
determinism contract the perf tests assert); ``wall_s``/``work_per_sec``
are machine-dependent.  GC is disabled around the timed region to cut
run-to-run variance; the workload's own allocations dominate either way.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import platform
import pstats
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "perf" / "baseline.json"
#: A run this much slower than baseline (in work/sec) fails --check.
REGRESSION_TOLERANCE = 0.25
#: Reduced scale used by --check so the CI gate stays fast.
CHECK_SCALE = 0.25

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf.macro import MACROS  # noqa: E402
from repro.campaign.pool import call_guarded, iter_pooled, \
    select_names  # noqa: E402
from repro.core.engine import KERNELS, resolve_kernel  # noqa: E402


def profile_scenario(name: str, scale: float, top: int = 10,
                     sidecar: Optional[pathlib.Path] = None,
                     telemetry: bool = False) -> List[Dict[str, Any]]:
    """cProfile one extra (untimed) run; return the ``top`` functions by
    cumulative time.

    Embedded in the BENCH record so a perf PR can cite *where* the time
    went, not just how much of it there was.  The profiled run is
    separate from the timed repeats — profiling overhead (3-4x on this
    workload) must never pollute the wall figures.  With ``sidecar``,
    the *full* cumulative profile is additionally written to that path
    (a standalone text file, not part of the BENCH JSON).
    """
    scenario = MACROS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    scenario(scale, telemetry=True) if telemetry else scenario(scale)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    if sidecar is not None:
        import io
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer) \
            .sort_stats("cumulative").print_stats()
        sidecar.write_text(buffer.getvalue())
    rows: List[Dict[str, Any]] = []
    repo_prefix = str(REPO_ROOT) + "/"
    for func in stats.fcn_list[:top]:  # (file, line, name), sorted
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, func_name = func
        rows.append({
            "function": f"{filename.replace(repo_prefix, '')}:{line}"
                        f"({func_name})",
            "calls": ncalls,
            "tottime_s": round(tottime, 4),
            "cumtime_s": round(cumtime, 4),
        })
    return rows


def time_scenario(name: str, scale: float, repeats: int,
                  profile: bool = False, telemetry: bool = False,
                  profile_dir: Optional[pathlib.Path] = None
                  ) -> Dict[str, Any]:
    """Run one macro-scenario ``repeats`` times; return its bench record."""
    scenario = MACROS[name]
    walls = []
    result: Dict[str, Any] = {}
    first_stats: Optional[Dict[str, Any]] = None
    kwargs = {"telemetry": True} if telemetry else {}
    for _ in range(repeats):
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = scenario(scale, **kwargs)
            walls.append(time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
        if first_stats is None:
            first_stats = result["stats"]
        elif result["stats"] != first_stats:
            raise AssertionError(
                f"{name}: non-deterministic stats across repeats: "
                f"{first_stats} vs {result['stats']}")
    wall = statistics.median(walls)
    record = {
        "name": name,
        "scale": scale,
        "repeats": repeats,
        # The concrete run-loop implementation ("python" or "c") the
        # scenario's simulators resolved to — throughput is only
        # comparable like-for-like, so every record carries it.
        "kernel": resolve_kernel(),
        "wall_s": round(wall, 4),
        "work": result["work"],
        "work_unit": result["work_unit"],
        "work_per_sec": round(result["work"] / wall, 1),
        # Best-of-k throughput: the regression gate compares this, not
        # the median — a loaded machine can halve a median, but it can
        # only ever *lower* the best, so best-vs-best is the stabler
        # "did the code get slower" signal.
        "work_per_sec_best": round(result["work"] / min(walls), 1),
        "stats": result["stats"],
    }
    if telemetry:
        # Informational only: the regression gate and the BENCH
        # trajectory comparisons never read this key.
        record["telemetry"] = result.get("telemetry_summary")
    if profile:
        sidecar = (profile_dir / f"BENCH_{name}.profile.txt"
                   if profile_dir is not None else None)
        record["profile_top10_cumulative"] = profile_scenario(
            name, scale, sidecar=sidecar, telemetry=telemetry)
    return record


def _scenario_task(name: str, scale: float, repeats: int, profile: bool,
                   telemetry: bool,
                   profile_dir: Optional[pathlib.Path]):
    """One scenario measurement as a zero-arg task for the shared pool."""
    return lambda: time_scenario(name, scale, repeats, profile=profile,
                                 telemetry=telemetry,
                                 profile_dir=profile_dir)


def time_scenario_guarded(name: str, scale: float, repeats: int,
                          profile: bool = False, timeout: float = 0.0,
                          telemetry: bool = False,
                          profile_dir: Optional[pathlib.Path] = None
                          ) -> Tuple[str, Any]:
    """``time_scenario`` with an optional wall-clock cap.

    With ``timeout`` <= 0, runs in-process exactly as before.  With a
    timeout, the scenario runs in a forked worker (fork: the worker
    shares this process's loaded MACROS, monkeypatches included) and a
    scenario that livelocks or blows its budget is killed — yielding a
    clean ``("timeout", None)`` instead of hanging the whole bench run.

    Returns ``(status, payload)``: ``("ok", record)``,
    ``("error", message)`` or ``("timeout", None)``.  The fork/timeout
    machinery itself lives in :mod:`repro.campaign.pool`, shared with
    ``tools/run_campaign.py``: this is a one-task pool call.
    """
    return call_guarded(_scenario_task(name, scale, repeats, profile,
                                       telemetry, profile_dir),
                        timeout=timeout)


def iter_results(names, scale: float, repeats: int, profile: bool = False,
                 timeout: float = 0.0, jobs: int = 1,
                 telemetry: bool = False,
                 profile_dir: Optional[pathlib.Path] = None):
    """Yield ``(name, status, payload)`` for every scenario, **in input
    order** regardless of completion order.

    ``jobs <= 1`` without a timeout runs every scenario in-process,
    the historical serial path byte-for-byte.  Otherwise the scenarios
    are fed to ``jobs`` fork-once workers: scenarios that land on one
    worker share its process state exactly as they always have on the
    in-process path, and a scenario past ``timeout`` (or one that takes
    its worker down) costs that worker only — it is killed, reported
    for that scenario and replaced.  Finished results are buffered
    until their turn so the output rows (and failure ordering) are
    pinned to the input list (the shared
    :func:`repro.campaign.pool.iter_pooled` contract).
    """
    order = list(names)
    tasks = [_scenario_task(name, scale, repeats, profile, telemetry,
                            profile_dir) for name in order]
    for index, status, payload in iter_pooled(tasks, timeout=timeout,
                                              jobs=jobs):
        yield order[index], status, payload


def write_bench_json(record: Dict[str, Any], out_dir: pathlib.Path) -> pathlib.Path:
    path = out_dir / f"BENCH_{record['name']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def run_full(names, scale: float, repeats: int, out_dir: pathlib.Path,
             profile: bool = False, timeout: float = 0.0,
             jobs: int = 1, telemetry: bool = False) -> int:
    failures = []
    for name, status, payload in iter_results(names, scale, repeats,
                                              profile=profile,
                                              timeout=timeout, jobs=jobs,
                                              telemetry=telemetry,
                                              profile_dir=out_dir
                                              if profile else None):
        if status != "ok":
            reason = f"timed out after {timeout:g}s" \
                if status == "timeout" else payload
            print(f"{name:20s} FAILED: {reason}")
            failures.append(name)
            continue
        record = payload
        path = write_bench_json(record, out_dir)
        print(f"{name:20s} {record['wall_s']:8.3f}s "
              f"{record['work_per_sec']:>12,.0f} {record['work_unit']}/s"
              f"   -> {path.name}")
    if failures:
        print(f"FAIL: scenario(s) did not complete: {sorted(failures)}")
        return 1
    return 0


def _machine_fingerprint() -> str:
    return f"{platform.node()}/{platform.machine()}/py{platform.python_version()}"


def run_check(names, repeats: int, update_baseline: bool,
              timeout: float = 0.0, jobs: int = 1) -> int:
    """Reduced-scale regression gate against the committed baseline.

    Throughput (work/sec) is only compared when the baseline was
    recorded on this machine — absolute events/sec from another host
    would gate the hardware, not the diff — AND with the same kernel:
    a python-kernel baseline must not regression-gate a C-kernel run
    (or vice versa); that would gate the kernel choice, not the diff.
    The seeded ``stats`` fingerprint is machine- and kernel-independent
    (the kernels are bit-identical) and is always compared.
    """
    baseline: Dict[str, Any] = {}
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    machine = _machine_fingerprint()
    baseline_machine = baseline.get("_machine")
    same_machine = baseline_machine == machine
    if baseline and not same_machine and not update_baseline:
        print(f"note: baseline recorded on {baseline_machine!r}, this is "
              f"{machine!r} — throughput gate skipped, determinism (stats) "
              f"still checked. Run --check --update-baseline here to arm "
              f"the throughput gate for this machine.")
    failures = []
    records = {}
    for name, status, payload in iter_results(names, CHECK_SCALE, repeats,
                                              timeout=timeout, jobs=jobs):
        if status != "ok":
            reason = f"timed out after {timeout:g}s" \
                if status == "timeout" else payload
            print(f"{name:20s} FAILED: {reason}")
            failures.append(name)
            continue
        record = payload
        records[name] = record
        reference = baseline.get(name)
        if reference is None:
            print(f"{name:20s} {record['work_per_sec']:>12,.0f} "
                  f"{record['work_unit']}/s   (no baseline)")
            continue
        # Baselines predating the kernel key were recorded with the
        # pure-Python loop (the only kernel that existed then).
        same_kernel = (reference.get("kernel", "python")
                       == record["kernel"])
        if same_machine and same_kernel:
            floor = reference["work_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
            best = record["work_per_sec_best"]
            verdict = "ok" if best >= floor else "REGRESSED"
            print(f"{name:20s} {best:>12,.0f} "
                  f"{record['work_unit']}/s (best)   baseline "
                  f"{reference['work_per_sec']:>12,.0f}   {verdict}")
            if best < floor:
                failures.append(name)
        elif same_machine:
            print(f"{name:20s} {record['work_per_sec']:>12,.0f} "
                  f"{record['work_unit']}/s   (kernel "
                  f"{record['kernel']!r} vs baseline "
                  f"{reference.get('kernel', 'python')!r}: not gated)")
        else:
            print(f"{name:20s} {record['work_per_sec']:>12,.0f} "
                  f"{record['work_unit']}/s   (cross-machine: not gated)")
        if record["stats"] != reference.get("stats", record["stats"]):
            print(f"{name:20s} DETERMINISM DRIFT: stats differ from the "
                  f"committed baseline — a behavior change, not just a "
                  f"perf change. Update the baseline deliberately.")
            failures.append(name)
    if update_baseline:
        # Merge into the existing baseline: refreshing a subset via
        # --only must not erase the other scenarios' entries (which
        # would silently disarm their regression/determinism gates).
        # Entries for scenarios that no longer exist in MACROS are
        # pruned so renames/removals don't fossilize stale gates.
        payload: Dict[str, Any] = {
            name: entry for name, entry in baseline.items()
            if not name.startswith("_") and name in MACROS}
        payload.update({
            name: {
                "work_per_sec": record["work_per_sec_best"],
                "work_unit": record["work_unit"],
                "scale": record["scale"],
                "kernel": record["kernel"],
                "stats": record["stats"],
            }
            for name, record in records.items()
        })
        payload["_machine"] = machine
        BASELINE_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated -> {BASELINE_PATH}")
        return 0
    if failures:
        print(f"FAIL: regression(s) in {sorted(set(failures))}")
        return 1
    print("all benchmarks within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the registered macro-scenarios and exit")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this scenario (repeatable; accepts "
                             "glob patterns, e.g. 'interference_field*')")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="repetitions per scenario; median wall time "
                             "is reported (default 5)")
    parser.add_argument("--out-dir", type=pathlib.Path, default=REPO_ROOT,
                        help="where BENCH_*.json files go (default: repo root)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one extra (untimed) run per scenario; "
                             "embeds the top-10 cumulative functions in the "
                             "emitted BENCH_*.json and writes the full "
                             "profile to a BENCH_<name>.profile.txt sidecar")
    parser.add_argument("--telemetry", action="store_true",
                        help="arm the repro.telemetry probes/sampler for "
                             "every scenario and embed the telemetry summary "
                             "under the (non-gated) 'telemetry' BENCH key; "
                             "incompatible with --check")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run up to N scenarios concurrently on N "
                             "fork-once workers (the --timeout "
                             "isolation); output rows stay in input order "
                             "regardless of completion order (default 1 = "
                             "the historical serial path)")
    parser.add_argument("--timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="per-scenario wall-clock budget; a scenario "
                             "exceeding it is killed and reported as a "
                             "FAILED row instead of hanging the run "
                             "(default 0 = unlimited, in-process)")
    parser.add_argument("--kernel", choices=KERNELS, default=None,
                        metavar="{auto,python,c}",
                        help="run-loop implementation for every scenario "
                             "(exported as REPRO_KERNEL so forked workers "
                             "inherit it); 'c' errors out if the extension "
                             "is not built, 'auto' uses it when available "
                             "(default: honor the existing REPRO_KERNEL, "
                             "else auto)")
    parser.add_argument("--check", action="store_true",
                        help="reduced-scale regression gate vs the committed "
                             "baseline (exit 1 on >25%% regression; "
                             "throughput is gated like-for-like — same "
                             "machine AND same kernel as the baseline)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="with --check: rewrite the committed baseline "
                             "from this machine's numbers")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(MACROS):
            summary = (MACROS[name].__doc__ or "").strip().split("\n")[0]
            print(f"{name:20s} {summary}")
        return 0
    try:
        names = select_names(args.only, MACROS)
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.kernel is not None:
        # Export rather than thread a parameter through: macro code
        # resolves the kernel per-Simulator from REPRO_KERNEL, and the
        # forked --timeout/--jobs workers inherit the environment.
        os.environ["REPRO_KERNEL"] = args.kernel
    try:
        resolve_kernel()  # fail fast: an unbuilt explicit 'c' must not
    except Exception as exc:  # produce a full run of FAILED rows
        parser.error(str(exc))
    if args.telemetry and args.check:
        parser.error("--telemetry is mutually exclusive with --check: the "
                     "regression gate must measure the production posture")
    if args.check:
        return run_check(names, max(args.repeat, 3), args.update_baseline,
                         timeout=args.timeout, jobs=args.jobs)
    return run_full(names, args.scale, args.repeat, args.out_dir,
                    profile=args.profile, timeout=args.timeout,
                    jobs=args.jobs, telemetry=args.telemetry)


if __name__ == "__main__":
    raise SystemExit(main())
