"""Differential gate: sharded execution vs the single-process oracle.

Two regimes, matching the partitioner's coupling classification:

* **Decoupled** (every cross-shard pair orthogonal or below the energy
  floor): sharding is a pure reordering of independent event streams,
  so per-BSS seeded stats must be *byte-identical* to the
  single-process run.  Any drift is a determinism bug, not noise.

* **Weakly coupled** (cross-shard energy above the floor but far below
  decode/CCA thresholds): boundary arrivals ride as energy-only ghosts
  whose timestamps are exact but whose modelling differs from the
  single-process run only in bookkeeping order.  Stats must agree
  within the declared tolerances below, and the sharded run itself
  must still be bit-reproducible (same seed => same arrival log).
"""

import pytest

from repro.core.engine import ckernel_available
from repro.parallel import run_sharded, run_single
from repro.parallel.partition import CellSpec, partition_cells
from repro.core.topology import Position
from repro.phy.propagation import LogDistance
from repro.scenarios import build_city_cells, city_propagation, saturated_cell

#: Declared tolerances for the weakly-coupled regime: the ghost energy
#: sits ~20 dB below the CCA threshold, so the runs may diverge by at
#: most a frame boundary per cell over the test horizon.
FRAMES_ABS_TOL = 2
BYTES_ABS_TOL = 2 * 200  # two payloads


def free_space():
    return LogDistance(2.4e9, exponent=2.0)


def _far_pair():
    """Two same-channel saturated cells 10 km apart under free space.

    At the closest approach (9980 m) the received power is about
    -100 dBm: above the -110 dBm partitioner floor (so the pair is
    *coupled* and exchanges boundary ghosts) but ~20 dB under the CCA
    energy-detect threshold (so the ghosts are protocol-inert).  The
    10 km gap also buys a ~33 us conservative lookahead, keeping the
    round count civilised at a millisecond horizon.
    """
    build = saturated_cell(2, payload_size=200)
    return [
        CellSpec("west", 1, Position(0.0, 0.0, 0.0), 10.0, build),
        CellSpec("east", 1, Position(10_000.0, 0.0, 0.0), 10.0, build),
    ]


class TestDecoupledByteEqual:
    def test_city_grid_per_bss_stats_match_exactly(self):
        cells = build_city_cells(bss_count=4, stations_per_bss=2,
                                 payload_size=200)
        single = run_single(cells, seed=17, horizon=0.02,
                            propagation_factory=city_propagation)
        sharded = run_sharded(cells, seed=17, horizon=0.02, workers=2,
                              propagation_factory=city_propagation)
        # Byte-equal per-BSS stats AND identical global event count:
        # the exact-equality branch of the differential gate.
        assert sharded["cells"] == single["cells"]
        assert sharded["events"] == single["events"]
        assert sharded["boundary_records"] == 0
        assert sharded["rounds"] == 1
        # Sanity: the workload actually did something.
        assert any(stats["rx_frames"] > 0
                   for stats in single["cells"].values())


#: The automatic partitioner keeps coupled cells on one shard, so the
#: weakly-coupled regime is entered deliberately via a manual split —
#: the operator declaring "I accept tolerance-level divergence".
MANUAL_SPLIT = {"west": 0, "east": 1}


class TestWeaklyCoupledTolerances:
    def test_pair_is_classified_as_coupled_when_split(self):
        plan = partition_cells(_far_pair(), free_space(), workers=2,
                               manual=MANUAL_SPLIT)
        assert plan.coupled
        # ~33 us of physical lookahead from the 10 km separation.
        assert 3.0e-5 < plan.min_lookahead < 3.4e-5

    def test_automatic_partition_refuses_to_split_the_pair(self):
        plan = partition_cells(_far_pair(), free_space(), workers=2)
        assert plan.shard_of["west"] == plan.shard_of["east"]
        assert not plan.coupled

    def test_sharded_matches_oracle_within_declared_tolerances(self):
        cells = _far_pair()
        single = run_single(cells, seed=23, horizon=0.004,
                            propagation_factory=free_space)
        sharded = run_sharded(cells, seed=23, horizon=0.004, workers=2,
                              propagation_factory=free_space,
                              manual=MANUAL_SPLIT)
        assert sharded["boundary_records"] > 0
        assert sharded["rounds"] > 1
        for name in ("west", "east"):
            mine = sharded["cells"][name]
            oracle = single["cells"][name]
            assert oracle["rx_frames"] > 0
            assert abs(mine["rx_frames"] - oracle["rx_frames"]) \
                <= FRAMES_ABS_TOL
            assert abs(mine["rx_bytes"] - oracle["rx_bytes"]) \
                <= BYTES_ABS_TOL

    def test_coupled_sharded_run_is_bit_reproducible(self):
        cells = _far_pair()
        first = run_sharded(cells, seed=23, horizon=0.002, workers=2,
                            propagation_factory=free_space,
                            manual=MANUAL_SPLIT)
        second = run_sharded(cells, seed=23, horizon=0.002, workers=2,
                             propagation_factory=free_space,
                             manual=MANUAL_SPLIT)
        assert first["boundary_records"] > 0
        assert first["arrival_log"] == second["arrival_log"]
        assert first["arrival_log_sha1"] == second["arrival_log_sha1"]
        assert first["cells"] == second["cells"]


@pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")
class TestKernelVariants:
    """The differential gate must hold when the forked shard workers
    run the compiled kernel: kernel choice is an implementation detail
    that may never show up in any byte of the results."""

    def test_c_workers_byte_equal_python_oracle(self, monkeypatch):
        cells = build_city_cells(bss_count=4, stations_per_bss=2,
                                 payload_size=200)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        single = run_single(cells, seed=17, horizon=0.02,
                            propagation_factory=city_propagation)
        # Workers inherit the env across fork, so this flips every
        # shard's run loop to the compiled kernel.
        monkeypatch.setenv("REPRO_KERNEL", "c")
        sharded = run_sharded(cells, seed=17, horizon=0.02, workers=2,
                              propagation_factory=city_propagation)
        assert sharded["cells"] == single["cells"]
        assert sharded["events"] == single["events"]

    def test_coupled_c_run_matches_python_run_bit_for_bit(self, monkeypatch):
        cells = _far_pair()
        results = {}
        for kernel in ("python", "c"):
            monkeypatch.setenv("REPRO_KERNEL", kernel)
            results[kernel] = run_sharded(cells, seed=23, horizon=0.002,
                                          workers=2,
                                          propagation_factory=free_space,
                                          manual=MANUAL_SPLIT)
        python_run, c_run = results["python"], results["c"]
        assert python_run["boundary_records"] > 0
        assert python_run["arrival_log"] == c_run["arrival_log"]
        assert python_run["arrival_log_sha1"] == c_run["arrival_log_sha1"]
        assert python_run["cells"] == c_run["cells"]
