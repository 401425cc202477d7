#!/usr/bin/env python3
"""Capture seeded golden traces for the determinism contract.

Runs the DES macro-scenarios with full tracing enabled and dumps each
protocol event trace (repr-exact timestamps) plus the seeded stats to a
directory.  Used two ways:

* Around a refactor: capture before, capture after, ``diff -r`` — the
  byte-identical-traces acceptance check.

      PYTHONPATH=src:benchmarks:tests python tools/capture_golden.py /tmp/before
      ... refactor ...
      PYTHONPATH=src:benchmarks:tests python tools/capture_golden.py /tmp/after
      diff -r /tmp/before /tmp/after

* ``--fixture``: regenerate the committed backoff tie-break fixture
  (``tests/mac/fixtures/tiebreak_trace.json``).  Only do this
  deliberately, from a commit whose contention behavior is the intended
  reference.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

FIXTURE_PATH = REPO_ROOT / "tests" / "mac" / "fixtures" / "tiebreak_trace.json"

#: Macros whose runs are DES-driven: every in-process simulator they
#: build is captured with full tracing (multi-simulator macros emit one
#: ``# sim N`` section per simulator, in construction order).
TRACED_MACROS = ("dcf_saturation", "dcf_saturation_100", "multi_bss",
                 "hidden_terminal", "interference_field", "mesh_backhaul",
                 "roaming_ess", "fault_storm")
#: Macros captured by seeded stats fingerprint only: wep_audit is pure
#: computation (no event trace), and the city_scale pair runs its
#: simulators inside forked shard workers where the parent cannot reach
#: their trace logs — their canonical arrival-log sha1 in the stats is
#: the equivalent byte-level pin.
STATS_ONLY_MACROS = ("wep_audit", "city_scale", "city_scale_1p")
#: Everything capture-able: the traced set plus the stats-only macros.
CAPTURABLE_MACROS = TRACED_MACROS + STATS_ONLY_MACROS


def select_macros(patterns: Optional[Sequence[str]],
                  error) -> List[str]:
    """Resolve ``--only`` patterns against the capturable macro set.

    Same contract as ``run_bench.py --only``: each entry is an exact
    name or a glob, order follows the command line, duplicates
    collapse, and a pattern matching nothing is an error — a typo must
    not silently capture zero macros and report success.  ``error`` is
    the parser's error callback (or any ``str -> NoReturn``).
    """
    if not patterns:
        return list(CAPTURABLE_MACROS)
    names: List[str] = []
    unmatched = []
    for pattern in patterns:
        matched = [name for name in CAPTURABLE_MACROS
                   if fnmatch.fnmatch(name, pattern)]
        if not matched:
            unmatched.append(pattern)
        names.extend(name for name in matched if name not in names)
    if unmatched:
        error(f"unknown macro(s)/pattern(s): {unmatched}; "
              f"capturable: {list(CAPTURABLE_MACROS)}")
    return names


def _strip_stats(stats: Dict[str, Any]) -> Dict[str, Any]:
    # Strip instrumentation counters along with the kernel event
    # count: cache/plan hit ratios, telemetry accumulators and the
    # like are implementation diagnostics, not protocol outcomes,
    # and legitimately change when a perf PR restructures the
    # caching (the traces are the bit-identity contract).
    return {key: value for key, value in stats.items()
            if key != "events"
            and not key.startswith(("link_cache", "fanout_",
                                    "telemetry"))}


def capture_macros(out_dir: pathlib.Path, scale: float,
                   names: Optional[Sequence[str]] = None,
                   telemetry: bool = False) -> None:
    from perf import macro as macro_mod
    from repro.core.engine import Simulator
    from repro.core.trace import TraceLog

    captured: List[Simulator] = []

    def traced_simulator(seed: int) -> Simulator:
        trace = TraceLog(capacity=None, enabled=True)
        sim = Simulator(seed=seed, trace=trace)
        captured.append(sim)
        return sim

    if names is None:
        names = CAPTURABLE_MACROS
    macro_mod._perf_simulator = traced_simulator
    for name in [n for n in names if n in TRACED_MACROS]:
        captured.clear()
        result = macro_mod.MACROS[name](scale, telemetry=telemetry)
        # One section per simulator, in construction order.  The
        # single-simulator format (no section marker) is unchanged from
        # before multi-simulator macros were capturable, so historical
        # before/after diffs stay line-for-line comparable.
        sections: List[str] = []
        total = 0
        for index, sim in enumerate(captured):
            lines = [
                f"{record.time!r} {record.source} {record.event} "
                + " ".join(f"{key}={value!r}"
                           for key, value in sorted(record.detail.items()))
                for record in sim.trace
            ]
            total += len(lines)
            if len(captured) > 1:
                sections.append(f"# sim {index}")
            sections.extend(lines)
        (out_dir / f"{name}.trace").write_text("\n".join(sections) + "\n")
        stats = _strip_stats(result["stats"])
        stats["protocol_events"] = total
        (out_dir / f"{name}.stats.json").write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n")
        if telemetry:
            # Sim-time stream only: it's part of the determinism
            # contract and diffs byte-for-byte; the wall stream is
            # machine noise and would break ``diff -r``.
            (out_dir / f"{name}.telemetry.jsonl").write_text(
                result["telemetry_jsonl"])
        print(f"{name:24s} {total:8d} trace lines -> {out_dir}")
    for name in [n for n in names if n in STATS_ONLY_MACROS]:
        captured.clear()
        # Stats only: wep_audit is pure computation; the city_scale
        # pair's simulators live in forked shard workers (their
        # canonical arrival-log sha1 inside the stats is the byte pin).
        if name == "wep_audit":
            result = macro_mod.MACROS[name](min(scale, 1.0))
            stats = result["stats"]
        else:
            result = macro_mod.MACROS[name](scale)
            stats = _strip_stats(result["stats"])
        (out_dir / f"{name}.stats.json").write_text(
            json.dumps(stats, indent=2, sort_keys=True) + "\n")
        print(f"{name:24s} stats only -> {out_dir}")


def capture_fixture() -> None:
    from mac.golden_tiebreak import (SCENARIO_VERSION, run_tiebreak_scenario,
                                     same_slot_transmissions)
    lines, stats = run_tiebreak_scenario()
    ties = same_slot_transmissions(lines)
    if ties < 1:
        raise SystemExit("scenario produced no same-slot ties; fixture "
                         "would not pin the tie-break ordering")
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps({
        "scenario_version": SCENARIO_VERSION,
        "same_slot_ties": ties,
        "stats": stats,
        "trace": lines,
    }, indent=2, sort_keys=True) + "\n")
    print(f"fixture: {len(lines)} trace lines, {ties} same-slot ties "
          f"-> {FIXTURE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir", nargs="?", type=pathlib.Path,
                        help="directory for <macro>.trace / .stats.json")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="macro workload scale (default 0.5)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="capture only this macro (repeatable; accepts "
                             "glob patterns, same contract as "
                             "run_bench.py --only; a pattern matching "
                             "nothing is an error)")
    parser.add_argument("--kernel", default=None,
                        metavar="{auto,python,c}",
                        help="run-loop implementation for every captured "
                             "macro (exported as REPRO_KERNEL so forked "
                             "shard workers inherit it).  The cross-kernel "
                             "gate is two captures + diff -r:\n"
                             "  capture_golden.py /tmp/py --kernel python\n"
                             "  capture_golden.py /tmp/c  --kernel c\n"
                             "  diff -r /tmp/py /tmp/c\n"
                             "'c' errors out if the extension is not built "
                             "(default: honor REPRO_KERNEL, else auto)")
    parser.add_argument("--fixture", action="store_true",
                        help="regenerate the committed tie-break fixture")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the traced macros with telemetry armed and "
                             "additionally capture each sim-time stream as "
                             "<macro>.telemetry.jsonl (the wall stream is "
                             "machine noise and is never captured)")
    args = parser.parse_args(argv)
    if args.kernel is not None:
        import os

        from repro.core.engine import KERNELS, resolve_kernel
        if args.kernel not in KERNELS:
            parser.error(f"unknown kernel {args.kernel!r}; "
                         f"expected one of {KERNELS}")
        os.environ["REPRO_KERNEL"] = args.kernel
        try:
            resolve_kernel()  # fail fast on an unbuilt explicit 'c'
        except Exception as exc:
            parser.error(str(exc))
    if not args.fixture and args.out_dir is None:
        parser.error("need an out_dir (or --fixture)")
    if args.out_dir is not None:
        names = select_macros(args.only, parser.error)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        capture_macros(args.out_dir, args.scale, names,
                       telemetry=args.telemetry)
    if args.fixture:
        capture_fixture()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
