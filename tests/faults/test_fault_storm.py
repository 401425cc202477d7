"""The fault_storm spec: byte-determinism and recovery.

Two same-seed runs must agree to the byte, fault trace included.
"""

import hashlib
import json

import pytest

from repro.campaign import run_job


def _run(spec_job, overrides=None):
    streams = {}
    stats = run_job(spec_job("fault_storm", overrides), streams)
    return json.dumps(stats, sort_keys=True), streams["fault_trace"], stats


class TestSeededDeterminism:
    def test_two_runs_are_byte_identical(self, spec_job):
        stats_a, trace_a, _ = _run(spec_job)
        stats_b, trace_b, _ = _run(spec_job)
        assert stats_a == stats_b
        assert trace_a == trace_b

    def test_different_seed_differs(self, spec_job):
        _, trace_a, _ = _run(spec_job)
        _, trace_b, _ = _run(spec_job, {"scenario.seed": 38})
        assert trace_a != trace_b

    def test_trace_matches_committed_sha(self, spec_job):
        _, trace, stats = _run(spec_job)
        assert stats["trace_sha1"] == \
            hashlib.sha1(trace.encode()).hexdigest()


class TestRecovery:
    def test_post_fault_pdr_recovers(self, spec_job):
        _, _, stats = _run(spec_job, {"scenario.horizon": 0.5})
        # The acceptance bar: post-fault delivery within 90% of the
        # pre-fault steady state, on both halves (stat is the min).
        assert stats["pdr_recovery"] >= 0.9
        assert stats["bss_reassociations"] >= 6
        assert stats["mesh_strikes"] == stats["mesh_restores"]
        assert stats["faults_injected"] > 0


class TestStrictInvariants:
    # fault_storm itself runs under the checker as the committed spec
    # fault_storm_observed (tests/test_macro_pins.py).
    @pytest.mark.parametrize("name", [
        "dcf_saturation", "hidden_terminal_rts", "mesh_backhaul_static",
        "mesh_backhaul_dsdv", "mesh_backhaul_grid"])
    def test_specs_clean_under_checker(self, spec_job, name):
        # A representative subset: pure DCF, NAV-heavy, and routing
        # (static, converging and repairing).
        run_job(spec_job(name, {"mode.invariants": True}))
