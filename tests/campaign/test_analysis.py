"""Seed-ensemble statistics and the differential tolerance gate."""

import math

import pytest

from repro.analysis.campaign import (Mismatch, compare_stats,
                                     differential_gate, ensemble,
                                     ensemble_table, group_rows,
                                     render_ensemble_table,
                                     render_sweep_curve, sweep_curve,
                                     t_critical)


def row(axes, seed, stats, status="done"):
    return {"label": f"seed={seed}", "axes": axes, "seed": seed,
            "status": status, "stats": stats}


class TestEnsemble:
    def test_t_critical_textbook_values(self):
        assert t_critical(1) == pytest.approx(12.706)
        assert t_critical(4) == pytest.approx(2.776)
        assert t_critical(30) == pytest.approx(2.042)
        assert t_critical(200) == pytest.approx(1.960)
        with pytest.raises(ValueError):
            t_critical(0)

    def test_single_sample(self):
        stat = ensemble([5.0])
        assert (stat.n, stat.mean, stat.std, stat.ci95) == (1, 5.0, 0.0,
                                                            0.0)

    def test_hand_computed_ci(self):
        # n=4, mean=5, sample std=2 -> ci95 = 3.182 * 2 / 2 = 3.182
        stat = ensemble([3.0, 4.0, 6.0, 7.0])
        assert stat.mean == pytest.approx(5.0)
        assert stat.std == pytest.approx(math.sqrt(10 / 3))
        assert stat.ci95 == pytest.approx(
            3.182 * stat.std / 2)
        assert stat.low == pytest.approx(stat.mean - stat.ci95)
        assert stat.high == pytest.approx(stat.mean + stat.ci95)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ensemble([])


class TestAggregation:
    def make_rows(self):
        return [
            row({"a.x": 1}, 3, {"pdr": 0.9, "events": 100}),
            row({"a.x": 1}, 4, {"pdr": 0.7, "events": 110}),
            row({"a.x": 2}, 3, {"pdr": 0.5, "events": 120}),
            row({"a.x": 2}, 4, {"pdr": 0.3, "events": 130}),
            row({"a.x": 3}, 3, {}, status="failed"),
        ]

    def test_group_rows_skips_non_done(self):
        groups = group_rows(self.make_rows())
        assert [dict(key) for key in groups] == [{"a.x": 1}, {"a.x": 2}]
        assert all(len(group) == 2 for group in groups.values())

    def test_ensemble_table(self):
        table = ensemble_table(self.make_rows(), stats=["pdr"])
        assert [label for label, _ in table] == ["x=1", "x=2"]
        assert table[0][1]["pdr"].mean == pytest.approx(0.8)
        assert table[1][1]["pdr"].mean == pytest.approx(0.4)

    def test_ensemble_table_missing_stat_is_loud(self):
        with pytest.raises(KeyError, match="nope"):
            ensemble_table(self.make_rows(), stats=["nope"])

    def test_repr_string_floats_are_revived(self):
        # read_store keeps canonical repr'd floats as strings.
        rows = [row({"a.x": 1}, 3, {"pdr": "0.25", "note": "text"})]
        table = ensemble_table(rows)
        assert table[0][1]["pdr"].mean == pytest.approx(0.25)
        assert "note" not in table[0][1]

    def test_sweep_curve_orders_by_first_appearance(self):
        curve = sweep_curve(self.make_rows(), "a.x", "pdr")
        assert [x for x, _ in curve] == [1, 2]
        assert curve[0][1].n == 2

    def test_sweep_curve_missing_axis_or_stat(self):
        with pytest.raises(KeyError, match="no sweep axis"):
            sweep_curve(self.make_rows(), "a.y", "pdr")
        with pytest.raises(KeyError, match="no statistic"):
            sweep_curve(self.make_rows(), "a.x", "nope")

    def test_renderers_produce_tables(self):
        rows = self.make_rows()
        text = render_ensemble_table("t", rows, ["pdr", "events"])
        assert "pdr mean" in text and "x=1" in text
        text = render_sweep_curve("t", rows, "a.x", "pdr")
        assert text.count("\n") >= 5


class TestDifferential:
    def test_within_tolerance_passes(self):
        ref = [row({}, 3, {"pdr": 0.90, "delivered": 100})]
        cand = [row({}, 3, {"pdr": 0.91, "delivered": 101})]
        tolerances = {"pdr": {"abs": 0.02}, "delivered": {"rel": 0.02}}
        assert compare_stats(ref, cand, tolerances) == []
        differential_gate(ref, cand, tolerances)  # no raise

    def test_violation_reports_stat_and_limit(self):
        ref = [row({}, 3, {"pdr": 0.90})]
        cand = [row({}, 3, {"pdr": 0.80})]
        mismatches = compare_stats(ref, cand, {"pdr": {"abs": 0.02}})
        assert len(mismatches) == 1
        mismatch = mismatches[0]
        assert isinstance(mismatch, Mismatch)
        assert mismatch.stat == "pdr"
        assert mismatch.delta == pytest.approx(0.10)
        assert mismatch.limit == pytest.approx(0.02)
        with pytest.raises(AssertionError, match="pdr"):
            differential_gate(ref, cand, {"pdr": {"abs": 0.02}})

    def test_bare_number_tolerance_is_absolute(self):
        ref = [row({}, 3, {"x": 10.0})]
        cand = [row({}, 3, {"x": 10.4})]
        assert compare_stats(ref, cand, {"x": 0.5}) == []
        assert len(compare_stats(ref, cand, {"x": 0.3})) == 1

    def test_missing_row_and_missing_stat_are_violations(self):
        ref = [row({}, 3, {"pdr": 0.9}), row({}, 4, {"pdr": 0.9})]
        cand = [row({}, 3, {"other": 1.0})]
        mismatches = compare_stats(ref, cand, {"pdr": {"abs": 0.5}})
        kinds = {m.stat for m in mismatches}
        assert "done row count" in kinds
        assert "(row missing)" in kinds
        assert "pdr (absent)" in kinds

    def test_matching_ignores_mode_difference(self):
        # Identity is (axes, seed): rows from a python-kernel and a
        # c-kernel campaign pair up even though their specs differ in
        # mode.
        ref = [row({"p": 1}, 3, {"x": 1.0}), row({"p": 2}, 3, {"x": 2.0})]
        cand = [row({"p": 2}, 3, {"x": 2.0}), row({"p": 1}, 3, {"x": 1.0})]
        assert compare_stats(ref, cand, {"x": 0.0}) == []
