#!/usr/bin/env python3
"""Macro pin check: runs the macro-scenarios and compares each one's
seeded ``stats`` with its pin in ``benchmarks/perf/baseline.json``.

Usage::

    # Every macro at CHECK_SCALE; exit 1 on a drifted stat, a macro
    # without a pin, or a macro that failed or outran --timeout:
    PYTHONPATH=src python tools/run_bench.py --check

    # A subset: --only takes exact names or glob patterns (repeatable);
    # --jobs runs that many macros at once on forked workers, rows
    # still in input order:
    PYTHONPATH=src python tools/run_bench.py --check --only 'city_scale*' \\
        --jobs 2 --timeout 600

    # Re-record the pins on purpose (after a deliberate behaviour
    # change; merges into the file, so --only refreshes a subset):
    PYTHONPATH=src python tools/run_bench.py --check --update-baseline

A pin is ``{"<macro>": {"stats": {...}}}``: the macro's outcome
fingerprint at ``CHECK_SCALE``, a pure function of its seed and the
same on every kernel and host.  This tool reads no clock; time is
measured by ``python3 -m bench`` (``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Any, Dict, Iterator, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "benchmarks" / "perf" / "baseline.json"
#: The scale every macro is pinned at.
CHECK_SCALE = 0.25

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf.macro import MACROS  # noqa: E402
from repro.campaign.pool import iter_pooled, select_names  # noqa: E402
from repro.core.engine import KERNELS, resolve_kernel  # noqa: E402


def _stats_task(name: str):
    """One macro run as a zero-arg task for the shared pool; only the
    stats travel back from a worker."""
    return lambda: MACROS[name](CHECK_SCALE)["stats"]


def iter_results(names: Sequence[str], timeout: float = 0.0,
                 jobs: int = 1) -> Iterator[Tuple[str, str, Any]]:
    """Yield ``(name, status, payload)`` per macro, **in input order**
    whatever the completion order: ``("ok", stats)``,
    ``("error", message)`` or ``("timeout", None)``.

    ``jobs <= 1`` without a timeout runs in-process; otherwise the
    macros go to ``jobs`` fork-once workers, and one past ``timeout``
    (or one that takes its worker down) costs that worker only
    (:func:`repro.campaign.pool.iter_pooled`).
    """
    order = list(names)
    tasks = [_stats_task(name) for name in order]
    for index, status, payload in iter_pooled(tasks, timeout=timeout,
                                              jobs=jobs):
        yield order[index], status, payload


def load_pins() -> Dict[str, Any]:
    return {name: entry["stats"]
            for name, entry in json.loads(BASELINE_PATH.read_text()).items()}


def drift(stats: Dict[str, Any], pin: Dict[str, Any]) -> Dict[str, str]:
    """``key -> "pinned -> now"`` for every key whose value moved."""
    def show(side: Dict[str, Any], key: str) -> str:
        return repr(side[key]) if key in side else "<absent>"
    return {key: f"{show(pin, key)} -> {show(stats, key)}"
            for key in sorted(set(stats) | set(pin))
            if key not in pin or key not in stats or pin[key] != stats[key]}


def run_check(names: Sequence[str], update_baseline: bool = False,
              timeout: float = 0.0, jobs: int = 1) -> int:
    """Print one row per macro; return 1 if any macro failed, drifted
    from its pin or has none (0 after ``update_baseline``)."""
    pins = load_pins()
    failures = []
    recorded = {}
    for name, status, payload in iter_results(names, timeout=timeout,
                                              jobs=jobs):
        if status != "ok":
            reason = f"timed out after {timeout:g}s" \
                if status == "timeout" else payload
            print(f"{name:20s} FAILED: {reason}")
            failures.append(name)
            continue
        recorded[name] = payload
        if update_baseline:
            print(f"{name:20s} recorded")
        elif name not in pins:
            print(f"{name:20s} NO PIN: {BASELINE_PATH.name} holds no stats "
                  f"for it; record one with --update-baseline")
            failures.append(name)
        else:
            moved = drift(payload, pins[name])
            for key, change in moved.items():
                print(f"{name:20s} DRIFT {key}: {change}")
            if moved:
                failures.append(name)
            else:
                print(f"{name:20s} ok")
    if update_baseline and not failures:
        # Merge: refreshing a subset via --only keeps the other pins;
        # pins of macros that no longer exist are dropped.
        pins = {name: stats for name, stats in pins.items()
                if name in MACROS}
        pins.update(recorded)
        BASELINE_PATH.write_text(json.dumps(
            {name: {"stats": stats} for name, stats in pins.items()},
            indent=2, sort_keys=True) + "\n")
        print(f"pins updated -> {BASELINE_PATH}")
        return 0
    if failures:
        print(f"FAIL: {sorted(set(failures))}")
        return 1
    print("every macro matches its pin")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the registered macro-scenarios and exit")
    parser.add_argument("--check", action="store_true",
                        help="run the macros and compare their stats with "
                             "the committed pins")
    parser.add_argument("--update-baseline", action="store_true",
                        help="with --check: re-record the pins from this "
                             "run instead of comparing")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this macro (repeatable; accepts "
                             "glob patterns, e.g. 'interference_field*')")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run up to N macros at once on forked workers; "
                             "rows stay in input order (default 1)")
    parser.add_argument("--timeout", type=float, default=0.0,
                        metavar="SECONDS",
                        help="per-macro wall-clock budget; a macro past it "
                             "is killed and reported as a FAILED row "
                             "(default 0 = unlimited, in-process)")
    parser.add_argument("--kernel", choices=KERNELS, default=None,
                        metavar="{auto,python,c}",
                        help="run-loop implementation for every macro "
                             "(exported as REPRO_KERNEL so forked workers "
                             "inherit it); 'c' errors out if the extension "
                             "is not built (default: honor REPRO_KERNEL, "
                             "else auto)")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(MACROS):
            summary = (MACROS[name].__doc__ or "").strip().split("\n")[0]
            print(f"{name:20s} {summary}")
        return 0
    if not args.check:
        parser.error("nothing to do: pass --check (or --list); time is "
                     "measured by python3 -m bench")
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
    return run_check(names, args.update_baseline, timeout=args.timeout,
                     jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
