#!/usr/bin/env python3
"""Capture seeded golden traces: the records behind a trace pin.

Runs every job of the committed specs (``specs/*.toml``) with full
tracing enabled and dumps each protocol event trace (repr-exact
timestamps, one :func:`repro.core.trace.render` line per record) plus
the seeded stats to a directory: ``<campaign>.trace`` and
``<campaign>.stats.json`` for a one-job spec, ``<campaign>/<job
label>.*`` for a sweep.  Every ``.stats.json`` names the behaviour epoch
(``repro.BEHAVIOUR_EPOCH``) of the code that captured it, as
``behaviour_epoch``.  Used two ways:

* To explain a drift.  ``tests/test_macro_pins.py`` is the acceptance
  check: it pins every job's trace digest (a lone simulator's is the
  SHA-1 of its ``.trace`` file here) and names the first divergent
  window of records.  Capture that spec at both commits and read those
  records:

      PYTHONPATH=src python tools/capture_golden.py /tmp/before --only NAME
      ... the change ...
      PYTHONPATH=src python tools/capture_golden.py /tmp/after --only NAME
      diff -r /tmp/before /tmp/after

* ``--fixture``: regenerate the committed backoff tie-break fixture
  (``tests/mac/fixtures/tiebreak_trace.json``).  Only do this
  deliberately, from a commit whose contention behavior is the intended
  reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

SPECS_DIR = REPO_ROOT / "specs"
FIXTURE_PATH = REPO_ROOT / "tests" / "mac" / "fixtures" / "tiebreak_trace.json"


def spec_names() -> List[str]:
    """Every committed spec, by file stem (== its campaign name)."""
    return sorted(path.stem for path in SPECS_DIR.glob("*.toml"))


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


def capture_specs(out_dir: pathlib.Path,
                  names: Optional[Sequence[str]] = None,
                  telemetry: bool = False) -> None:
    """Run the named specs' jobs in-process, every simulator traced.

    The runner's ``Simulator`` name is swapped for a tracing factory,
    so every simulator a job builds is captured: a job with several
    emits one ``# sim N`` section per simulator, in construction
    order.  A job that traced nothing here — its simulators live in
    shard workers, or in an executor that builds its own — is captured
    by its stats only (``city_scale``'s arrival-log SHA-1 in them is
    the byte-level pin).
    """
    from repro import BEHAVIOUR_EPOCH
    from repro.campaign import expand_grid, load_spec, runner
    from repro.campaign.spec import set_path
    from repro.core.trace import TraceLog, render

    captured: List[Any] = []
    simulator_class = runner.Simulator

    def traced_simulator(*args, **kwargs):
        kwargs["trace"] = TraceLog(capacity=None, enabled=True)
        sim = simulator_class(*args, **kwargs)
        captured.append(sim)
        return sim

    runner.Simulator = traced_simulator
    try:
        for name in spec_names() if names is None else names:
            spec = load_spec(SPECS_DIR / f"{name}.toml")
            set_path(spec, "mode.telemetry", telemetry)
            jobs = expand_grid(spec)
            for job in jobs:
                stem = name if len(jobs) == 1 else f"{name}/{job.label}"
                captured.clear()
                streams: Dict[str, Any] = {}
                stats = _strip_stats(runner.run_job(job.spec, streams))
                sections = [[render(record.time, record.source,
                                    record.event, record.detail)
                             for record in sim.trace] for sim in captured]
                total = sum(map(len, sections))
                (out_dir / stem).parent.mkdir(parents=True, exist_ok=True)
                if total:
                    # The single-simulator format has no section marker.
                    lines: List[str] = []
                    for index, section in enumerate(sections):
                        if len(sections) > 1:
                            lines.append(f"# sim {index}")
                        lines.extend(section)
                    (out_dir / f"{stem}.trace").write_text(
                        "\n".join(lines) + "\n")
                    stats["protocol_events"] = total
                    if telemetry:
                        # Sim-time stream only: it's part of the
                        # determinism contract and diffs byte-for-byte;
                        # the wall stream is machine noise and would
                        # break ``diff -r``.
                        (out_dir / f"{stem}.telemetry.jsonl").write_text(
                            streams["telemetry_jsonl"])
                stats["behaviour_epoch"] = BEHAVIOUR_EPOCH
                (out_dir / f"{stem}.stats.json").write_text(
                    json.dumps(stats, indent=2, sort_keys=True) + "\n")
                print(f"{stem:48s} "
                      + (f"{total:8d} trace lines" if total else
                         "stats only") + f" -> {out_dir}")
    finally:
        runner.Simulator = simulator_class


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
                        help="directory for <campaign>.trace / .stats.json")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="capture only this spec (repeatable; accepts "
                             "glob patterns over the specs/*.toml stems; a "
                             "pattern matching nothing is an error)")
    parser.add_argument("--kernel", default=None,
                        metavar="{auto,python,c}",
                        help="run-loop implementation for every captured "
                             "job (exported as REPRO_KERNEL so forked "
                             "shard workers inherit it); 'c' errors out "
                             "if the extension is not built (default: "
                             "honor REPRO_KERNEL, else auto)")
    parser.add_argument("--fixture", action="store_true",
                        help="regenerate the committed tie-break fixture")
    parser.add_argument("--telemetry", action="store_true",
                        help="run the jobs with mode.telemetry armed and "
                             "additionally capture each traced job's "
                             "sim-time stream as <campaign>.telemetry.jsonl "
                             "(the wall stream is machine noise and is "
                             "never captured)")
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
        from repro.campaign.pool import select_names
        try:
            names = select_names(args.only, spec_names(), what="spec")
        except ValueError as exc:
            parser.error(str(exc))
        args.out_dir.mkdir(parents=True, exist_ok=True)
        capture_specs(args.out_dir, names, telemetry=args.telemetry)
    if args.fixture:
        capture_fixture()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
