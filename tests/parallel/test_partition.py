"""Tests for the automatic shard partitioner."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.topology import Position
from repro.core.units import SPEED_OF_LIGHT
from repro.parallel import CellSpec, find_couplings, partition_cells
from repro.parallel.partition import pack_lpt
from repro.phy.propagation import LogDistance


def _noop_build(ctx):
    return lambda: {}


def cell(name, channel, x, y=0.0, radius=10.0, weight=1.0, power=20.0):
    return CellSpec(name, channel, Position(x, y, 0.0), radius,
                    _noop_build, weight=weight, max_tx_power_dbm=power)


def urban():
    return LogDistance(2.4e9, exponent=4.0)


def free_space():
    return LogDistance(2.4e9, exponent=2.0)


class TestCouplings:
    def test_orthogonal_channels_never_couple(self):
        cells = (cell("a", 1, 0.0), cell("b", 6, 1.0))
        assert find_couplings(cells, free_space(), -110.0) == ()

    def test_close_same_channel_couples(self):
        cells = (cell("a", 1, 0.0), cell("b", 1, 100.0))
        (coupling,) = find_couplings(cells, free_space(), -110.0)
        assert coupling.cell_a == "a" and coupling.cell_b == "b"
        # Closest approach: center distance minus both radii.
        assert coupling.distance_m == 80.0
        assert coupling.delay_s == 80.0 / SPEED_OF_LIGHT

    def test_beyond_energy_floor_decouples(self):
        # Exponent-4 loss across >200 m clears -110 dBm at 20 dBm tx.
        cells = (cell("a", 1, 0.0), cell("b", 1, 240.0))
        assert find_couplings(cells, urban(), -110.0) == ()

    def test_probe_uses_strongest_cell_power(self):
        base = (cell("a", 1, 0.0), cell("b", 1, 240.0))
        assert find_couplings(base, urban(), -110.0) == ()
        loud = (cell("a", 1, 0.0), cell("b", 1, 240.0, power=40.0))
        assert len(find_couplings(loud, urban(), -110.0)) == 1

    def test_overlapping_discs_clamp_to_min_distance(self):
        cells = (cell("a", 1, 0.0), cell("b", 1, 5.0))
        (coupling,) = find_couplings(cells, free_space(), -110.0)
        assert coupling.distance_m == 1.0


class TestAutomaticPartition:
    def test_decoupled_cells_spread_over_workers(self):
        cells = [cell(f"c{i}", 1, 300.0 * i) for i in range(6)]
        plan = partition_cells(cells, urban(), workers=3)
        assert len(plan.shards) == 3
        assert sorted(len(shard) for shard in plan.shards) == [2, 2, 2]
        assert not plan.coupled
        assert plan.min_lookahead == float("inf")

    def test_coupled_group_stays_on_one_shard(self):
        cells = [cell("a", 1, 0.0), cell("b", 1, 100.0),
                 cell("c", 6, 0.0), cell("d", 6, 100.0)]
        plan = partition_cells(cells, free_space(), workers=4)
        assert plan.shard_of["a"] == plan.shard_of["b"]
        assert plan.shard_of["c"] == plan.shard_of["d"]
        assert plan.shard_of["a"] != plan.shard_of["c"]
        assert not plan.coupled  # cross-shard pairs are orthogonal

    def test_weight_balancing_is_lpt(self):
        cells = [cell("heavy", 1, 0.0, weight=10.0),
                 cell("l1", 1, 1000.0, weight=1.0),
                 cell("l2", 1, 2000.0, weight=1.0),
                 cell("l3", 1, 3000.0, weight=1.0)]
        plan = partition_cells(cells, urban(), workers=2)
        heavy_shard = plan.shard_of["heavy"]
        # The three light cells all pack opposite the heavy one.
        assert {plan.shard_of[f"l{i}"] for i in (1, 2, 3)} \
            == {1 - heavy_shard}

    def test_pack_lpt_ties_break_on_item_then_bin(self):
        # Heaviest first (5 -> bin 0, 4 -> bin 1), then always the
        # least-loaded bin; equal weights go in item order and equal
        # loads to the lower bin.
        assert pack_lpt([1.0, 4.0, 1.0, 5.0, 3.0], 2) == [0, 1, 0, 0, 1]
        assert pack_lpt([2.0, 2.0, 2.0], 2) == [0, 1, 0]
        assert pack_lpt([1.0, 2.0], 5) == [1, 0]
        assert pack_lpt([], 3) == []

    def test_partition_is_deterministic(self):
        cells = [cell(f"c{i}", 1, 400.0 * i, weight=float(i % 3 + 1))
                 for i in range(9)]
        first = partition_cells(cells, urban(), workers=4)
        second = partition_cells(list(reversed(cells)), urban(), workers=4)
        assert first.describe() == second.describe()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            partition_cells([cell("a", 1, 0.0), cell("a", 6, 500.0)],
                            urban(), workers=2)

    def test_empty_and_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="no cells"):
            partition_cells([], urban(), workers=2)
        with pytest.raises(ConfigurationError, match="workers"):
            partition_cells([cell("a", 1, 0.0)], urban(), workers=0)


class TestManualOverride:
    def test_manual_assignment_is_respected(self):
        cells = [cell("a", 1, 0.0), cell("b", 1, 100.0)]
        plan = partition_cells(cells, free_space(), workers=2,
                               manual={"a": 0, "b": 1})
        assert plan.shard_of == {"a": 0, "b": 1}
        # Splitting a coupled pair yields a finite directed lookahead.
        assert plan.coupled
        assert plan.lookahead[(0, 1)] == 80.0 / SPEED_OF_LIGHT
        assert plan.lookahead[(1, 0)] == 80.0 / SPEED_OF_LIGHT
        assert plan.export_channels[0] == frozenset({1})
        assert plan.routes[(0, 1)] == (1,)

    def test_manual_missing_cell_rejected(self):
        cells = [cell("a", 1, 0.0), cell("b", 1, 500.0)]
        with pytest.raises(ConfigurationError, match="missing"):
            partition_cells(cells, urban(), workers=2, manual={"a": 0})

    def test_manual_unknown_cell_rejected(self):
        cells = [cell("a", 1, 0.0)]
        with pytest.raises(ConfigurationError, match="unknown"):
            partition_cells(cells, urban(), workers=2,
                            manual={"a": 0, "ghost": 1})

    def test_manual_out_of_range_rejected(self):
        cells = [cell("a", 1, 0.0)]
        with pytest.raises(ConfigurationError, match="out of range"):
            partition_cells(cells, urban(), workers=2, manual={"a": 5})

    def test_manual_gap_rejected(self):
        cells = [cell("a", 1, 0.0), cell("b", 1, 500.0)]
        with pytest.raises(ConfigurationError, match="empty"):
            partition_cells(cells, urban(), workers=3,
                            manual={"a": 0, "b": 2})


class TestShardPlan:
    def test_incoming_lists_directed_sources(self):
        cells = [cell("a", 1, 0.0), cell("b", 1, 100.0)]
        plan = partition_cells(cells, free_space(), workers=2,
                               manual={"a": 0, "b": 1})
        assert plan.incoming(0) == {1: 80.0 / SPEED_OF_LIGHT}
        assert plan.incoming(1) == {0: 80.0 / SPEED_OF_LIGHT}

    def test_index_of_is_global_and_name_sorted(self):
        cells = [cell("b", 1, 500.0), cell("a", 6, 0.0)]
        plan = partition_cells(cells, urban(), workers=2)
        assert plan.index_of("a") == 0
        assert plan.index_of("b") == 1
        with pytest.raises(KeyError):
            plan.index_of("ghost")
