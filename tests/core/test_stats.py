"""Tests for statistics primitives."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (
    Counter,
    SampleStat,
    TimeWeightedStat,
)


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter()
        counter.incr("tx")
        counter.incr("tx", 4)
        assert counter.get("tx") == 5
        assert counter["tx"] == 5

    def test_unknown_counter_is_zero(self):
        assert Counter().get("never") == 0

    def test_as_dict_snapshot(self):
        counter = Counter()
        counter.incr("a")
        snapshot = counter.as_dict()
        counter.incr("a")
        assert snapshot == {"a": 1}


class TestSampleStat:
    def test_mean_matches_statistics_module(self):
        data = [1.5, 2.0, 4.0, 8.0, 16.5, 0.25]
        stat = SampleStat()
        for value in data:
            stat.add(value)
        assert stat.mean == pytest.approx(statistics.mean(data))
        assert stat.minimum == min(data)
        assert stat.maximum == max(data)

    def test_empty_stat_is_nan(self):
        stat = SampleStat()
        assert math.isnan(stat.mean)
        assert math.isnan(stat.minimum)

    def test_percentiles(self):
        stat = SampleStat()
        for value in range(1, 101):
            stat.add(float(value))
        assert stat.percentile(0.0) == 1.0
        assert stat.percentile(1.0) == 100.0
        assert stat.percentile(0.5) == pytest.approx(50.5)

    def test_percentile_out_of_range_rejected(self):
        stat = SampleStat()
        stat.add(1.0)
        with pytest.raises(ValueError):
            stat.percentile(1.5)

    def test_max_samples_cap(self):
        stat = SampleStat(max_samples=10)
        for value in range(100):
            stat.add(float(value))
        # Moments still track everything even when samples are capped.
        assert stat.count == 100
        assert stat.mean == pytest.approx(49.5)

    def test_max_samples_keeps_the_first(self):
        stat = SampleStat(max_samples=3)
        for value in (5.0, 1.0, 4.0, 2.0):
            stat.add(value)
        assert stat.samples == [5.0, 1.0, 4.0]
        assert stat.minimum == 1.0

    def test_samples_not_kept(self):
        stat = SampleStat(keep_samples=False)
        stat.add(2.0)
        stat.add(4.0)
        assert stat.samples == []
        assert math.isnan(stat.percentile(0.5))
        assert stat.mean == 3.0

    def test_single_sample_is_every_percentile(self):
        stat = SampleStat()
        stat.add(7.0)
        assert stat.percentile(0.0) == stat.percentile(0.9) == 7.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=200))
    def test_welford_matches_two_pass(self, data):
        stat = SampleStat()
        for value in data:
            stat.add(value)
        assert stat.mean == pytest.approx(statistics.fmean(data), abs=1e-6)


class TestTimeWeightedStat:
    def test_weights_by_holding_time(self):
        stat = TimeWeightedStat(initial_value=0.0, start_time=0.0)
        stat.update(1.0, 10.0)   # value 0 held for 1s
        stat.update(3.0, 0.0)    # value 10 held for 2s
        stat.finish(4.0)         # value 0 held for 1s
        assert stat.mean == pytest.approx((0 * 1 + 10 * 2 + 0 * 1) / 4)

    def test_time_going_backwards_rejected(self):
        stat = TimeWeightedStat()
        stat.update(1.0, 5.0)
        with pytest.raises(ValueError):
            stat.update(0.5, 1.0)

    def test_no_elapsed_time_is_nan(self):
        assert math.isnan(TimeWeightedStat().mean)
