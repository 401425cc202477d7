"""Every macro's seeded stats equal their pin in ``baseline.json``.

The check of ``tools/run_bench.py --check``, in tier-1: all macros at
``CHECK_SCALE``, each in a forked worker of the shared pool under its
own timeout.  It fails when a stat drifts (the message names the macro
and the key), when a macro has no pin, and when a macro hangs.  The
pins hold on every kernel, so each kernel lane runs the same check.
Re-record them on purpose with ``--check --update-baseline``.
"""

import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run_bench  # noqa: E402
from perf.macro import MACROS  # noqa: E402

#: Per-macro budget: the slowest macro takes about 1.2 s on the
#: pure-Python kernel, so one still running after this has hung.
TIMEOUT_S = 60.0


def test_every_macro_matches_its_pin(capsys):
    code = run_bench.run_check(sorted(MACROS), timeout=TIMEOUT_S, jobs=2)
    assert code == 0, capsys.readouterr().out
