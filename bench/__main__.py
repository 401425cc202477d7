"""Command line of the benchmark.

    python3 -m bench                      every workload, timed and traced
    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1
                                          one pass of one workload; the
                                          last line printed is its result
    python3 -m bench --sets N             N full sets and their agreement
    python3 -m bench compare A.json B.json

Run from the repository root.  ``repro`` is imported from ``src/`` next
to this package, and the optional C kernel is built first so every run
uses the kernel ``Simulator(kernel="auto")`` resolves to on the
checked-out commit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from time import perf_counter
from typing import List, Optional

from . import OUT_DIR, ROOT

sys.path.insert(0, str(ROOT / "src"))


def build_kernel() -> float:
    """Bring ``repro.core._ckernel`` up to date with its source through
    ``tools/build_kernel.py``; return the seconds that took (a compile
    on the first run in a checkout, a freshness check afterwards)."""
    OUT_DIR.mkdir(exist_ok=True)
    start = perf_counter()
    status = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "build_kernel.py")],
        cwd=ROOT, stdout=subprocess.DEVNULL,
        # The compiler's temporary files stay inside the checkout too.
        env={**os.environ, "TMPDIR": str(OUT_DIR)}).returncode
    if status != 0:
        print("bench: WARNING: the C kernel could not be built; every "
              "number below is for the pure-Python kernel",
              file=sys.stderr)
    return perf_counter() - start


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="how long a timed pass measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: timed pass only, 1: traced pass only "
                             "(default without --workload: both)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests only: "
                             "results at another scale do not compare)")
    parser.add_argument("--no-build", action="store_true",
                        help="use the kernel already built, do not "
                             "rebuild it")
    parser.add_argument("--sets", type=int, default=1,
                        help="run this many full sets and print how well "
                             "they agree")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the set's results here as JSON, for "
                             "'compare'")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing: the benchmark "
              f"measures the repro package of the checkout it sits in",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        from .compare import compare_files
        paths = argv[1:]
        if len(paths) != 2:
            print("usage: python3 -m bench compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare_files(*map(pathlib.Path, paths))

    args = _parser().parse_args(argv)
    build_kernel_s = 0.0 if args.no_build else build_kernel()
    from . import compare, harness
    seconds = args.seconds if args.seconds is not None \
        else harness.declared()["run_seconds"]

    if args.workload is None:
        return compare.run_sets(args.sets, args.seed, seconds, args.scale,
                                args.trace, args.out)

    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    report = harness.run_workload(args.workload, args.seed, seconds,
                                  args.scale, bool(args.trace),
                                  build_kernel_s)
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    # The whole report for `python3 -m bench` and `compare`, then the
    # result line the driver reads.
    print("report " + json.dumps(report))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
