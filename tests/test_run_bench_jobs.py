"""The pin check's --jobs process-pool fan-out.

The contract: ``--jobs N`` may overlap macro runs across N forked
children, but the rows (and therefore the console table and the
verdicts) appear in exactly the same order as the serial path —
parallelism must never reorder output.
"""

import pathlib
import sys
import time

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import run_bench  # noqa: E402
from perf import macro  # noqa: E402


def _fast_macro(scale=1.0, **kwargs):
    return {"stats": {"x": 1}}


def _slow_macro(scale=1.0, **kwargs):
    time.sleep(0.3)
    return {"stats": {"x": 2}}


def _sleepy_macro(scale=1.0, **kwargs):
    time.sleep(0.6)
    return {"stats": {"x": 3}}


def _hanging_macro(scale=1.0, **kwargs):
    time.sleep(60)
    return _fast_macro(scale)


def _crashing_macro(scale=1.0, **kwargs):
    raise RuntimeError("synthetic macro failure")


@pytest.fixture
def stub_macros(monkeypatch):
    monkeypatch.setitem(macro.MACROS, "stub_slow", _slow_macro)
    monkeypatch.setitem(macro.MACROS, "stub_sleepy", _sleepy_macro)
    monkeypatch.setitem(macro.MACROS, "stub_fast", _fast_macro)
    monkeypatch.setitem(macro.MACROS, "stub_hang", _hanging_macro)
    monkeypatch.setitem(macro.MACROS, "stub_crash", _crashing_macro)


def collect(names, jobs, timeout=30.0):
    return list(run_bench.iter_results(names, timeout=timeout, jobs=jobs))


class TestJobsOrdering:
    def test_rows_follow_input_order_not_completion_order(
            self, stub_macros):
        # The slow macro is listed first; with two children the fast
        # one finishes well before it, yet must be emitted second.
        rows = collect(["stub_slow", "stub_fast"], jobs=2)
        assert [name for name, _, _ in rows] == ["stub_slow", "stub_fast"]
        assert all(status == "ok" for _, status, _ in rows)

    def test_parallel_rows_match_serial_rows(self, stub_macros):
        names = ["stub_fast", "stub_slow", "stub_fast"]
        serial = collect(names, jobs=1)
        parallel = collect(names, jobs=3)
        assert serial == parallel

    def test_duplicate_names_each_get_their_own_row(self, stub_macros):
        # Regression: results are buffered by input index, not name.
        # Three identical fast macros finish inside one wait() batch;
        # name-keyed buffering collapsed them to one row and the pool
        # then spun forever waiting for rows that could never arrive.
        rows = collect(["stub_fast", "stub_fast", "stub_fast"], jobs=3)
        assert [(n, s) for n, s, _ in rows] == [("stub_fast", "ok")] * 3

    def test_pool_actually_overlaps_children(self, stub_macros):
        start = time.monotonic()
        rows = collect(["stub_sleepy", "stub_sleepy", "stub_sleepy"],
                       jobs=3)
        elapsed = time.monotonic() - start
        assert all(status == "ok" for _, status, _ in rows)
        # Three 0.6 s macros serially sleep >= 1.8 s; overlapped they
        # fit well under that even on one core (they sleep, not spin).
        # The slack below the serial floor absorbs fork/scheduling
        # overhead on loaded single-core CI boxes.
        assert elapsed < 1.5


class TestJobsFailureRows:
    def test_timeout_kills_only_the_hung_child(self, stub_macros):
        rows = collect(["stub_hang", "stub_fast"], jobs=2, timeout=0.5)
        assert [(n, s) for n, s, _ in rows] \
            == [("stub_hang", "timeout"), ("stub_fast", "ok")]

    def test_crash_reports_error_row(self, stub_macros):
        rows = collect(["stub_crash", "stub_fast"], jobs=2)
        (name, status, message), ok_row = rows
        assert (name, status) == ("stub_crash", "error")
        assert "synthetic macro failure" in message
        assert ok_row[1] == "ok"

    def test_check_rows_keep_input_order_with_a_hung_macro(
            self, stub_macros, monkeypatch, capsys):
        monkeypatch.setattr(run_bench, "load_pins",
                            lambda: {"stub_fast": {"x": 1}})
        code = run_bench.run_check(["stub_hang", "stub_fast"], timeout=0.5,
                                   jobs=2)
        rows = capsys.readouterr().out.splitlines()
        assert code == 1
        assert rows[0].startswith("stub_hang") and "FAILED" in rows[0]
        assert rows[1].split() == ["stub_fast", "ok"]
