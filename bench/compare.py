"""Full sets of runs, and verdicts between two of them.

A *set* runs every workload once, each pass in its own child process so
peak memory is per workload.  ``compare`` turns two sets (a parent and a
change, or two sets of one commit) into a verdict per workload and
end-to-end metric against the bound BENCHMARK.json fixes.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import Any, Dict, Iterator, Optional, Tuple

from . import ROOT
from .harness import WORKLOADS, declared

#: Per-layer units whose values are pure functions of the seed: two
#: runs of one commit must agree on them exactly, on any machine.
EXACT_UNITS = ("count", "bytes")


def _run_pass(name: str, seed: int, seconds: float, scale: float,
              trace: int) -> Dict[str, Any]:
    """One pass of one workload in a child process; its report."""
    child = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--scale", str(scale), "--trace", str(trace), "--no-build"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    for line in child.stdout.splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    raise RuntimeError(f"{name} (trace {trace}) exited with "
                       f"{child.returncode} and no report")


def run_set(seed: int, seconds: float, scale: float,
            trace: Optional[int]) -> Dict[str, Any]:
    """Every workload, timed and/or traced, printed as it finishes."""
    from repro.core.engine import resolve_kernel
    result = {"seed": seed, "seconds": seconds, "scale": scale,
              "kernel": resolve_kernel("auto"), "workloads": {}}
    print(f"kernel {result['kernel']}, seed {seed}, scale {scale:g}, "
          f"{seconds:g} s per timed pass")
    for name in WORKLOADS:
        passes = result["workloads"][name] = {}
        for mode, flag in (("timed", 0), ("traced", 1)):
            if trace is not None and trace != flag:
                continue
            report = passes[mode] = _run_pass(name, seed, seconds, scale,
                                              flag)
            _print_report(report)
    return result


def _print_report(report: Dict[str, Any]) -> None:
    status = "ok" if report["correct"] else "FAILED"
    print(f"\n{report['workload']} [{report['mode']}] {status}: "
          f"{report['failed']} of {report['attempted']} operations failed, "
          f"stats_sha1 {report['stats_sha1']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    spread = report.get("spread", {})
    for name, metric in report["metrics"].items():
        line = f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}"
        if name in spread:
            line += ("   (median of {n}, min {min:.6g}, max {max:.6g})"
                     .format(**spread[name]))
        print(line)
    if "reference" in report:
        reference = report["reference"]
        print(("  times are at reference speed; as the clock read them: "
               + ", ".join(f"{name} {value:.6g}" for name, value
                           in report["raw_median"].items())
               if reference["applied"] else
               "  times are as the clock read them (not processor-bound)")
              + "; reference loop {median_s:.4g} s (nominal {nominal_s:g} s, "
                "min {min_s:.4g}, max {max_s:.4g}, n {n})".format(**reference))
    if "trace_file" in report:
        print(f"  trace written to {report['trace_file']}")


def _timed_metrics(result: Dict[str, Any]
                   ) -> Iterator[Tuple[str, str, Dict[str, float]]]:
    """``(workload, metric, {median, min, max, n})`` of a set."""
    for name, passes in result["workloads"].items():
        for metric, spread in passes.get("timed", {}).get(
                "spread", {}).items():
            yield name, metric, spread


def _exact_counters(result: Dict[str, Any]) -> Dict[Tuple[str, str], float]:
    return {(name, metric): entry["value"]
            for name, passes in result["workloads"].items()
            for metric, entry in passes.get("traced", {}).get(
                "metrics", {}).items()
            if entry["unit"] in EXACT_UNITS}


def _all_correct(result: Dict[str, Any]) -> bool:
    return all(report["correct"] for passes in result["workloads"].values()
               for report in passes.values())


def verdict(base: Dict[str, float], new: Dict[str, float], bound: float,
            better: str) -> Tuple[float, str]:
    """``(ratio, verdict)`` of ``new`` against ``base``.

    The ratio is median over median.  Where the two sides' min-max
    ranges overlap by more than the bound (as a share of the base
    median) the pair is ``unresolved``: the spread is wider than the
    difference the bound asks about.
    """
    ratio = new["median"] / base["median"]
    overlap = (min(base["max"], new["max"]) - max(base["min"], new["min"])) \
        / base["median"]
    if overlap > bound:
        return ratio, "unresolved"
    worsening = ratio if better == "lower" else 1 / ratio
    if worsening > 1 + bound:
        return ratio, "worse"
    if worsening < 1 - bound:
        return ratio, "improved"
    return ratio, "unchanged"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> int:
    """Print the verdict table; 1 when any pairing is worse."""
    for key in ("kernel", "scale", "seconds"):
        if base[key] != new[key]:
            print(f"bench compare: refusing to compare {key} "
                  f"{base[key]!r} against {new[key]!r}", file=sys.stderr)
            return 2
    metrics = {metric["name"]: metric for metric in declared()["end_to_end"]}
    new_spread = {(name, metric): values
                   for name, metric, values in _timed_metrics(new)}
    worse = 0
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for name, metric, values in _timed_metrics(base):
        other = new_spread.get((name, metric))
        if other is None:
            continue
        spec = metrics[metric]
        ratio, word = verdict(values, other, spec["bound"], spec["better"])
        worse += word == "worse"
        print(f"{name:14s} {metric:12s} {values['median']:12.5g} "
              f"{other['median']:12.5g} {ratio:9.3f} {spec['bound']:6.2f}  "
              f"{word}")
    for name, passes in base["workloads"].items():
        mine = passes.get("timed", {}).get("stats_sha1")
        theirs = new["workloads"].get(name, {}).get("timed", {}).get(
            "stats_sha1")
        if mine and theirs:
            print(f"{name:14s} simulated statistics "
                  f"{'identical' if mine == theirs else 'MOVED'}")
    new_counters = _exact_counters(new)
    for key, value in _exact_counters(base).items():
        if key in new_counters and new_counters[key] != value:
            print(f"{key[0]:14s} {key[1]} {value} -> {new_counters[key]}")
    if not (_all_correct(base) and _all_correct(new)):
        print("a side has failed operations: no gain may be claimed")
        return 1
    return 1 if worse else 0


def compare_files(base: pathlib.Path, new: pathlib.Path) -> int:
    return compare(json.loads(base.read_text()), json.loads(new.read_text()))


def run_sets(count: int, seed: int, seconds: float, scale: float,
             trace: Optional[int], out: Optional[pathlib.Path]) -> int:
    """Run ``count`` full sets; with more than one, print how well each
    pair of sets agrees."""
    results = []
    for index in range(count):
        if count > 1:
            print(f"\n=== set {index + 1} of {count} ===")
        results.append(run_set(seed, seconds, scale, trace))
        if out is not None:
            path = out if count == 1 else out.with_name(
                f"{out.stem}.{index + 1}{out.suffix}")
            path.write_text(json.dumps(results[-1], indent=1) + "\n")
    status = 0 if all(map(_all_correct, results)) else 1
    bounds = {metric["name"]: metric["bound"]
              for metric in declared()["end_to_end"]}
    for i, first in enumerate(results):
        for j in range(i + 1, count):
            print(f"\n=== agreement of sets {i + 1} and {j + 1} ===")
            second = {(name, metric): values for name, metric, values
                      in _timed_metrics(results[j])}
            for name, metric, values in _timed_metrics(first):
                apart = abs(second[name, metric]["median"]
                            / values["median"] - 1)
                agree = apart <= bounds[metric]
                status |= not agree
                print(f"{name:14s} {metric:12s} medians {apart:6.1%} apart, "
                      f"bound {bounds[metric]:.0%}: "
                      f"{'agree' if agree else 'DISAGREE'}")
            counters = _exact_counters(results[j])
            moved = [key for key, value in _exact_counters(first).items()
                     if counters[key] != value]
            status |= bool(moved)
            print(f"exact counters: {len(counters) - len(moved)} identical"
                  + "".join(f"\n  DIFFERS {name} {metric}"
                            for name, metric in moved))
    return status
