"""The fault_storm benchmark macro: byte-determinism and recovery.

CI runs ``-k SeededDeterminism`` as the dedicated determinism gate:
two same-seed runs must agree to the byte, fault trace included.
"""

import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf.macro import MACROS, fault_storm  # noqa: E402


def _run(scale=0.25, **kwargs):
    result = fault_storm(scale=scale, **kwargs)
    canonical = json.dumps(result["stats"], sort_keys=True)
    return canonical, result["fault_trace"], result


class TestSeededDeterminism:
    def test_two_runs_are_byte_identical(self):
        stats_a, trace_a, _ = _run()
        stats_b, trace_b, _ = _run()
        assert stats_a == stats_b
        assert trace_a == trace_b

    def test_different_seed_differs(self):
        _, trace_a, _ = _run()
        _, trace_b, _ = _run(seed=38)
        assert trace_a != trace_b

    def test_trace_matches_committed_sha(self):
        _, trace, result = _run()
        import hashlib
        assert result["stats"]["trace_sha1"] == \
            hashlib.sha1(trace.encode()).hexdigest()


class TestRecovery:
    def test_post_fault_pdr_recovers(self):
        _, _, result = _run(scale=0.5)
        stats = result["stats"]
        # The acceptance bar: post-fault delivery within 90% of the
        # pre-fault steady state, on both halves (stat is the min).
        assert stats["pdr_recovery"] >= 0.9
        assert stats["bss_reassociations"] >= 6
        assert stats["mesh_strikes"] == stats["mesh_restores"]
        assert stats["faults_injected"] > 0

    def test_registered_as_macro(self):
        assert "fault_storm" in MACROS


class TestStrictInvariants:
    def test_fault_storm_clean_under_checker(self):
        fault_storm(scale=0.25, check_invariants=True)

    @pytest.mark.parametrize("name", ["dcf_saturation", "hidden_terminal",
                                      "mesh_backhaul"])
    def test_des_macros_clean_under_checker(self, name):
        # A representative subset (pure DCF, NAV-heavy, and routing)
        # at a small scale.
        MACROS[name](scale=0.05, check_invariants=True)
