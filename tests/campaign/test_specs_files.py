"""The committed spec files under specs/ executed verbatim.

These are the declarative conversions of the worked examples
(hidden_terminal, the jamming duty sweep, the mesh-backhaul chain) —
run here exactly as committed, so the files can never rot.
"""

import statistics

import pytest

from repro.campaign import expand_grid, load_spec, run_campaign, runner
from repro.campaign.spec import set_path
from repro.core.engine import ckernel_available

ALL_SPECS = ["hidden_terminal.toml", "jamming_duty.toml",
             "mesh_chain.toml"]


def seed_means(rows, stat, axis=None):
    """``[(axis value, seeds, mean of stat)]`` per sweep point, in grid
    order (the store renders floats as repr strings)."""
    points = {}
    for row in rows:
        assert row["status"] == "done"
        points.setdefault(row["axes"].get(axis), []).append(
            float(row["stats"][stat]))
    return [(value, len(samples), statistics.fmean(samples))
            for value, samples in points.items()]


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
    (off, off_n, rts_off), (on, on_n, rts_on) = seed_means(
        result.rows, "rx_bytes", "scenario.params.rts_threshold_bytes")
    assert (off, off_n, on, on_n) == (2347, 2, 256, 2)
    # The paper's point: RTS/CTS rescues goodput between hidden senders.
    assert rts_on > rts_off


def test_jamming_duty_campaign_curve_decreases(specs_dir, tmp_path):
    spec = load_spec(specs_dir / "jamming_duty.toml")
    result = run_campaign(spec, tmp_path)
    assert result.ok and result.ran == 6
    curve = seed_means(result.rows, "delivered_bytes",
                       "adversaries.0.on_time")
    assert [(duty, n) for duty, n, _ in curve] == [(2e-4, 2), (1e-3, 2),
                                                   (1.8e-3, 2)]
    means = [mean for _, _, mean in curve]
    # More jammer airtime, less goodput — the duty-cycle trade-off.
    assert means[0] > means[1] > means[2]


def test_mesh_chain_campaign(specs_dir, tmp_path):
    spec = load_spec(specs_dir / "mesh_chain.toml")
    result = run_campaign(spec, tmp_path)
    assert result.ok and result.ran == 3
    [(_, seeds, pdr)] = seed_means(result.rows, "pdr")
    assert seeds == 3 and pdr > 0.5
    # Every node has full routes.
    assert seed_means(result.rows, "converged") == [(None, 3, 4.0)]


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
    reference, candidate = ([(row["axes"], row["seed"], row["stats"])
                             for row in results[kernel].rows]
                            for kernel in ("python", "c"))
    assert "events" in reference[0][2]
    assert candidate == reference
