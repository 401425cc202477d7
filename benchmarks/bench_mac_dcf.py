"""E10 — DCF saturation throughput vs station count, simulated against
the Bianchi analytic model (the MAC-level evaluation the calibration
band implies).

Every station is kept saturated; the aggregate goodput at the receiver
is reported per population size, next to the Bianchi prediction
computed from the library's own timing constants.  The shape to
reproduce: a mild decline with contention, the simulation tracking the
model.

A second series compares basic access against RTS/CTS on a 1 Mb/s
channel with 1500-byte payloads — Bianchi's classic configuration where
reservation wins once the collision cost dwarfs the RTS overhead.

Both series sweep the campaign runner's ``saturated_cells`` builder,
and measure each job over its horizon after a warm-up.
"""

import pytest

from repro.analysis.metrics import bianchi_saturation_throughput
from repro.analysis.tables import render_table
from repro.campaign import build_job, expand_grid, validate_spec
from repro.phy.standards import DOT11B

WARMUP = 0.4
STATIONS = "scenario.params.stations_per_bss"
RTS = "scenario.params.rts_threshold_bytes"


def saturated_cell(horizon, payload_bytes, sweep, **params):
    """A ``saturated_cells`` sweep: one cell, seed 5, 4-deep queues."""
    return validate_spec({
        "campaign": {"name": "e10"},
        "scenario": {"builder": "saturated_cells", "horizon": horizon,
                     "seed": 5, "params": params},
        "traffic": {"kind": "saturate", "payload_bytes": payload_bytes,
                    "depth": 4},
        "sweep": sweep})


def goodput_bps(spec):
    """Receiver goodput over the job's horizon, after a WARMUP."""
    horizon = spec["scenario"]["horizon"]
    job = build_job(spec)
    job.run(WARMUP)
    warm = job.stats()["rx_bytes"]
    job.run(WARMUP + horizon)
    return (job.stats()["rx_bytes"] - warm) * 8 / horizon


def run_population_sweep():
    rows = []
    for job in expand_grid(saturated_cell(3.0, 800, {
            STATIONS: [1, 2, 5, 10, 20]})):
        n = job.axes[STATIONS]
        simulated = goodput_bps(job.spec)
        analytic = bianchi_saturation_throughput(
            n, DOT11B, payload_bytes=800, data_rate_bps=11e6)
        rows.append([n, simulated / 1e6, analytic / 1e6,
                     simulated / analytic])
    return rows


def test_dcf_saturation_vs_bianchi(record_result):
    rows = run_population_sweep()
    text = render_table(
        "E10: DCF saturation throughput vs stations "
        "(802.11b, 800B payload, 11 Mb/s)",
        ["stations", "simulated Mb/s", "Bianchi Mb/s", "sim/model"],
        rows, formats=[None, ".3f", ".3f", ".2f"])
    record_result("E10_dcf_saturation", text)

    # Simulation tracks the analytic model within 25% everywhere.
    for row in rows:
        assert row[3] == pytest.approx(1.0, abs=0.25), row
    # The canonical decline with contention beyond a couple of stations.
    simulated = [row[1] for row in rows]
    assert simulated[-1] < simulated[1]


def run_rts_comparison():
    simulated = {(job.axes[STATIONS], job.axes[RTS]): goodput_bps(job.spec)
                 for job in expand_grid(saturated_cell(
                     6.0, 1500, {STATIONS: [2, 5, 10], RTS: [2347, 400]},
                     rate="DSSS-1"))}
    rows = []
    for n in (2, 5, 10):
        analytic_basic = bianchi_saturation_throughput(
            n, DOT11B, 1500, 1e6, use_rts=False)
        analytic_rts = bianchi_saturation_throughput(
            n, DOT11B, 1500, 1e6, use_rts=True)
        rows.append([n, simulated[n, 2347] / 1e3, simulated[n, 400] / 1e3,
                     analytic_basic / 1e3, analytic_rts / 1e3])
    return rows


def test_dcf_basic_vs_rts(record_result):
    rows = run_rts_comparison()
    text = render_table(
        "E10b: basic access vs RTS/CTS (1500B payload, 1 Mb/s channel)",
        ["stations", "basic kb/s", "RTS kb/s", "Bianchi basic kb/s",
         "Bianchi RTS kb/s"],
        rows, formats=[None, ".0f", ".0f", ".0f", ".0f"])
    text += ("\n\nNote: the simulated PHY models DSSS-1's 11-chip Barker "
             "processing gain, which lets some equal-power overlaps "
             "survive; the Bianchi model charges every overlap as a full "
             "loss, so the simulated basic-access penalty is milder than "
             "the analytic one. The RTS advantage trend with n matches.")
    record_result("E10b_rts_vs_basic", text)

    # As contention grows, RTS/CTS closes the gap on (or beats) basic
    # access: the relative advantage improves monotonically with n.
    advantages = [row[2] / row[1] for row in rows]
    assert advantages == sorted(advantages)
    # The analytic model agrees RTS wins by n=10 in this configuration.
    assert rows[-1][4] > rows[-1][3]
