"""Validation: simulated DCF saturation throughput vs the Bianchi model.

This is the credibility check for experiment E10 — the simulated MAC,
run to saturation, should land near the analytic prediction computed
from the *same* timing constants.  Each population is a job of the
campaign runner's ``saturated_cells`` builder, measured after a warm-up.
"""

import pytest

from repro.analysis.metrics import bianchi_saturation_throughput
from repro.campaign import build_job, expand_grid, validate_spec
from repro.phy.standards import DOT11B

WARMUP = 0.5
STATIONS = "scenario.params.stations_per_bss"
JOBS = {job.axes[STATIONS]: job.spec for job in expand_grid(validate_spec({
    "campaign": {"name": "bianchi"},
    "scenario": {"builder": "saturated_cells", "horizon": 4.0, "seed": 5},
    "traffic": {"kind": "saturate", "payload_bytes": 800, "depth": 4},
    "sweep": {STATIONS: [1, 2, 5, 10, 12]}}))}


def run_saturation(n):
    """Receiver goodput of ``n`` saturated stations over the horizon."""
    spec = JOBS[n]
    horizon = spec["scenario"]["horizon"]
    job = build_job(spec)
    job.run(WARMUP)
    warm = job.stats()["rx_bytes"]
    job.run(WARMUP + horizon)
    return (job.stats()["rx_bytes"] - warm) * 8 / horizon


class TestDcfMatchesBianchi:
    @pytest.mark.slow
    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_saturation_throughput_tracks_the_model(self, n):
        simulated = run_saturation(n)
        analytic = bianchi_saturation_throughput(
            n, DOT11B, payload_bytes=800, data_rate_bps=11e6)
        # The model idealizes (no EIFS, slotted collisions, ...): agree
        # within 25%.
        assert simulated == pytest.approx(analytic, rel=0.25)

    @pytest.mark.slow
    def test_throughput_declines_with_contention(self):
        sparse = run_saturation(2)
        crowded = run_saturation(12)
        assert crowded < sparse
