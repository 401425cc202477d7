"""The perf harness's --only scenario filter (exact names and globs)."""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run_bench  # noqa: E402
from perf.macro import MACROS  # noqa: E402


def select(argv):
    """Run main()'s argument handling far enough to capture the
    selected scenario names (the scenarios themselves are stubbed)."""
    captured = {}

    def fake_run_full(names, scale, repeats, out_dir, profile=False,
                      timeout=0.0, jobs=1, telemetry=False):
        captured["names"] = list(names)
        return 0

    original = run_bench.run_full
    run_bench.run_full = fake_run_full
    try:
        code = run_bench.main(argv)
    finally:
        run_bench.run_full = original
    return code, captured.get("names")


class TestOnlyFilter:
    def test_exact_name(self):
        code, names = select(["--only", "dcf_saturation"])
        assert code == 0 and names == ["dcf_saturation"]

    def test_glob_matches_every_variant(self):
        code, names = select(["--only", "city_scale*"])
        assert code == 0
        assert names == ["city_scale", "city_scale_1p"]

    def test_patterns_accumulate_without_duplicates(self):
        code, names = select(["--only", "dcf_saturation*",
                              "--only", "dcf_saturation"])
        assert code == 0
        assert names == sorted(n for n in MACROS
                               if n.startswith("dcf_saturation"))

    def test_unmatched_pattern_is_an_error(self):
        with pytest.raises(SystemExit) as excinfo:
            select(["--only", "no_such_macro*"])
        assert excinfo.value.code == 2

    def test_no_filter_runs_everything(self):
        code, names = select([])
        assert code == 0 and names == sorted(MACROS)
