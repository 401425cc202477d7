"""The committed spec files under specs/ executed verbatim.

These are the declarative conversions of the worked examples
(hidden_terminal, the jamming duty sweep, the mesh-backhaul chain) —
run here exactly as committed, so the files can never rot.
"""

import pytest

from repro.analysis.campaign import (differential_gate, ensemble_table,
                                     sweep_curve)
from repro.campaign import expand_grid, load_spec, run_campaign, runner
from repro.campaign.spec import set_path
from repro.core.engine import ckernel_available

ALL_SPECS = ["hidden_terminal.toml", "jamming_duty.toml",
             "mesh_chain.toml"]


@pytest.mark.parametrize("name", ALL_SPECS)
def test_spec_loads_and_expands(specs_dir, name):
    spec = load_spec(specs_dir / name)
    jobs = expand_grid(spec)
    assert jobs, f"{name} expands to an empty grid"
    assert len({job.key for job in jobs}) == len(jobs)


def test_hidden_terminal_campaign(specs_dir, tmp_path):
    spec = load_spec(specs_dir / "hidden_terminal.toml")
    result = run_campaign(spec, tmp_path)
    assert result.ok and result.ran == 4
    table = dict(ensemble_table(result.rows, stats=["rx_bytes"]))
    rts_off = table["rts_threshold_bytes=2347"]["rx_bytes"]
    rts_on = table["rts_threshold_bytes=256"]["rx_bytes"]
    assert rts_off.n == 2 and rts_on.n == 2
    # The paper's point: RTS/CTS rescues goodput between hidden senders.
    assert rts_on.mean > rts_off.mean


def test_jamming_duty_campaign_curve_decreases(specs_dir, tmp_path):
    spec = load_spec(specs_dir / "jamming_duty.toml")
    result = run_campaign(spec, tmp_path)
    assert result.ok and result.ran == 6
    curve = sweep_curve(result.rows, "adversaries.0.on_time",
                        "delivered_bytes")
    assert [duty for duty, _ in curve] == [2e-4, 1e-3, 1.8e-3]
    means = [point.mean for _, point in curve]
    # More jammer airtime, less goodput — the duty-cycle trade-off.
    assert means[0] > means[1] > means[2]


def test_mesh_chain_campaign(specs_dir, tmp_path):
    spec = load_spec(specs_dir / "mesh_chain.toml")
    result = run_campaign(spec, tmp_path)
    assert result.ok and result.ran == 3
    table = ensemble_table(result.rows, stats=["pdr", "converged"])
    label, summary = table[0]
    assert label == "(all)"
    assert summary["pdr"].n == 3
    assert summary["pdr"].mean > 0.5
    assert summary["converged"].mean == 4.0  # every node has full routes


@pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")
def test_jamming_duty_is_identical_on_both_kernels(specs_dir, tmp_path,
                                                  monkeypatch):
    """The whole committed campaign, composition and all, run once per
    kernel: every statistic of every job agrees exactly."""
    simulator_class, kernels = runner.Simulator, []

    def simulator(*args, **kwargs):
        sim = simulator_class(*args, **kwargs)
        kernels.append(sim.kernel)
        return sim
    monkeypatch.setattr(runner, "Simulator", simulator)
    results = {}
    for kernel in ("python", "c"):
        spec = load_spec(specs_dir / "jamming_duty.toml")
        set_path(spec, "mode.kernel", kernel)
        results[kernel] = run_campaign(spec, tmp_path / kernel)
        assert results[kernel].ok and results[kernel].ran == 6
    # Each half really ran on the kernel its spec names.
    assert kernels == ["python"] * 6 + ["c"] * 6
    reference, candidate = results["python"].rows, results["c"].rows
    tolerances = {stat: {"abs": 0.0} for stat in reference[0]["stats"]}
    assert "events" in tolerances
    differential_gate(reference, candidate, tolerances)
