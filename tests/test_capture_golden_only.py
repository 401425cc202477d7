"""capture_golden's --only macro filter (run_bench --only contract)."""

import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import capture_golden  # noqa: E402


def _error(message):
    raise SystemExit(message)


class TestSelectMacros:
    def test_no_patterns_selects_everything(self):
        assert capture_golden.select_macros(None, _error) \
            == list(capture_golden.CAPTURABLE_MACROS)
        assert capture_golden.select_macros([], _error) \
            == list(capture_golden.CAPTURABLE_MACROS)

    def test_exact_name(self):
        assert capture_golden.select_macros(["multi_bss"], _error) \
            == ["multi_bss"]

    def test_glob_expands_in_declared_order(self):
        assert capture_golden.select_macros(["dcf_saturation*"], _error) \
            == ["dcf_saturation", "dcf_saturation_100"]

    def test_duplicates_collapse_but_order_follows_command_line(self):
        names = capture_golden.select_macros(
            ["wep_audit", "dcf_saturation_1*", "wep_audit"], _error)
        assert names == ["wep_audit", "dcf_saturation_100"]

    def test_unmatched_pattern_is_an_error(self):
        with pytest.raises(SystemExit, match="no_such"):
            capture_golden.select_macros(["no_such*"], _error)

    def test_stats_only_macro_is_capturable(self):
        assert "wep_audit" in capture_golden.CAPTURABLE_MACROS
        assert "wep_audit" not in capture_golden.TRACED_MACROS
