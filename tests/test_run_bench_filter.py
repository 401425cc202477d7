"""The pin check's command line: --only globs, --check, --jobs."""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run_bench  # noqa: E402
from perf.macro import MACROS  # noqa: E402


def select(argv, monkeypatch):
    """Run main()'s argument handling far enough to capture the
    selected macro names (the check itself is stubbed)."""
    captured = {}

    def fake_run_check(names, update_baseline=False, timeout=0.0, jobs=1):
        captured["names"] = list(names)
        return 0

    monkeypatch.setattr(run_bench, "run_check", fake_run_check)
    return run_bench.main(["--check"] + argv), captured.get("names")


class TestOnlyFilter:
    def test_exact_name(self, monkeypatch):
        code, names = select(["--only", "dcf_saturation"], monkeypatch)
        assert code == 0 and names == ["dcf_saturation"]

    def test_glob_matches_every_variant(self, monkeypatch):
        code, names = select(["--only", "city_scale*"], monkeypatch)
        assert code == 0
        assert names == ["city_scale", "city_scale_1p"]

    def test_patterns_accumulate_without_duplicates(self, monkeypatch):
        code, names = select(["--only", "dcf_saturation*",
                              "--only", "dcf_saturation"], monkeypatch)
        assert code == 0
        assert names == sorted(n for n in MACROS
                               if n.startswith("dcf_saturation"))

    def test_unmatched_pattern_is_an_error(self, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            select(["--only", "no_such_macro*"], monkeypatch)
        assert excinfo.value.code == 2

    def test_no_filter_runs_everything(self, monkeypatch):
        code, names = select([], monkeypatch)
        assert code == 0 and names == sorted(MACROS)


class TestArguments:
    def test_without_check_there_is_nothing_to_do(self):
        with pytest.raises(SystemExit) as excinfo:
            run_bench.main(["--only", "dcf_saturation"])
        assert excinfo.value.code == 2

    def test_jobs_zero_is_an_argument_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run_bench.main(["--check", "--only", "dcf_saturation",
                            "--jobs", "0"])
        assert excinfo.value.code == 2
