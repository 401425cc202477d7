"""The pin check's verdicts: a hung macro, a macro without a pin, a
drifted stat, and re-recording the pins."""

import json
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
    return {"stats": {"x": 1, "y": [2, 3]}}


def _hanging_macro(scale=1.0, **kwargs):
    time.sleep(60)
    return _fast_macro(scale)


def _crashing_macro(scale=1.0, **kwargs):
    raise RuntimeError("synthetic macro failure")


@pytest.fixture
def pins(monkeypatch, tmp_path):
    """Stub macros (forked workers inherit the monkeypatches) and a
    pin file of their own."""
    monkeypatch.setitem(macro.MACROS, "stub_fast", _fast_macro)
    monkeypatch.setitem(macro.MACROS, "stub_hang", _hanging_macro)
    monkeypatch.setitem(macro.MACROS, "stub_crash", _crashing_macro)
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"stub_fast": {"stats": {"x": 1, "y": [2, 3]}}}))
    monkeypatch.setattr(run_bench, "BASELINE_PATH", path)
    return path


def check(names, capsys, **kwargs):
    code = run_bench.run_check(names, **kwargs)
    return code, capsys.readouterr().out


class TestVerdicts:
    def test_matching_pin_passes(self, pins, capsys):
        code, out = check(["stub_fast"], capsys)
        assert code == 0 and "stub_fast            ok" in out

    def test_hung_macro_is_a_failed_row_within_the_timeout(self, pins,
                                                           capsys):
        start = time.monotonic()
        code, out = check(["stub_hang", "stub_fast"], capsys, timeout=0.5)
        assert time.monotonic() - start < 30.0
        assert code == 1
        assert "stub_hang            FAILED: timed out after 0.5s" in out
        assert "stub_fast            ok" in out

    def test_crashing_macro_is_a_failed_row(self, pins, capsys):
        code, out = check(["stub_crash"], capsys, timeout=30.0)
        assert code == 1 and "synthetic macro failure" in out

    def test_macro_without_a_pin_fails(self, pins, capsys, monkeypatch):
        monkeypatch.setitem(macro.MACROS, "stub_new", _fast_macro)
        code, out = check(["stub_new"], capsys)
        assert code == 1 and "stub_new             NO PIN" in out

    def test_drift_names_the_macro_and_each_key(self, pins, capsys):
        pins.write_text(json.dumps(
            {"stub_fast": {"stats": {"x": 2, "y": [2, 3], "z": 0}}}))
        code, out = check(["stub_fast"], capsys)
        assert code == 1
        assert "stub_fast            DRIFT x: 2 -> 1" in out
        assert "stub_fast            DRIFT z: 0 -> <absent>" in out
        assert "DRIFT y" not in out


class TestUpdateBaseline:
    def test_rerecords_merges_and_prunes(self, pins, capsys, monkeypatch):
        monkeypatch.setitem(macro.MACROS, "stub_new", _fast_macro)
        pins.write_text(json.dumps(
            {"stub_fast": {"stats": {"x": 9}},
             "stub_gone": {"stats": {"x": 0}},
             "stub_crash": {"stats": {"x": 5}}}))
        code, _ = check(["stub_fast", "stub_new"], capsys,
                        update_baseline=True)
        assert code == 0
        assert json.loads(pins.read_text()) == {
            "stub_crash": {"stats": {"x": 5}},
            "stub_fast": {"stats": {"x": 1, "y": [2, 3]}},
            "stub_new": {"stats": {"x": 1, "y": [2, 3]}}}

    def test_a_failed_macro_writes_nothing(self, pins, capsys):
        before = pins.read_text()
        code, _ = check(["stub_fast", "stub_crash"], capsys,
                        update_baseline=True, timeout=30.0)
        assert code == 1 and pins.read_text() == before
