"""Tests for propagation models."""

import math

import pytest

from repro.core.errors import ConfigurationError
from repro.core.topology import Position
from repro.core.units import dbm_to_watts, watts_to_dbm
from repro.phy.propagation import (
    FixedLoss,
    FreeSpace,
    LogDistance,
    RangePropagation,
    max_range_for_budget,
)

A = Position(0, 0, 0)


def at(distance):
    return Position(distance, 0, 0)


class TestFreeSpace:
    def test_friis_known_value(self):
        # Free-space loss at 2.4 GHz over 100 m is about 80 dB.
        model = FreeSpace(2.4e9)
        assert model.path_loss_db(A, at(100.0)) == pytest.approx(80.0, abs=0.5)

    def test_20db_per_decade(self):
        model = FreeSpace(2.4e9)
        near = model.path_loss_db(A, at(10.0))
        far = model.path_loss_db(A, at(100.0))
        assert far - near == pytest.approx(20.0)

    def test_min_distance_clamps(self):
        model = FreeSpace(2.4e9, min_distance=1.0)
        assert model.path_loss_db(A, A) == \
            model.path_loss_db(A, at(0.5)) == model.path_loss_db(A, at(1.0))

    def test_received_power_decreases_with_distance(self):
        model = FreeSpace(5.0e9)
        powers = [model.received_power_watts(0.1, A, at(d))
                  for d in (1, 10, 100, 1000)]
        assert powers == sorted(powers, reverse=True)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            FreeSpace(0.0)


class TestLogDistance:
    def test_matches_free_space_at_reference(self):
        model = LogDistance(2.4e9, exponent=3.5, reference_distance=1.0)
        free = FreeSpace(2.4e9, min_distance=1.0)
        assert model.path_loss_db(A, at(1.0)) == \
            pytest.approx(free.path_loss_db(A, at(1.0)))

    def test_exponent_decades(self):
        model = LogDistance(2.4e9, exponent=3.0)
        loss_10 = model.path_loss_db(A, at(10.0))
        loss_100 = model.path_loss_db(A, at(100.0))
        assert loss_100 - loss_10 == pytest.approx(30.0)

    def test_implausible_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            LogDistance(2.4e9, exponent=0.5)


class TestRangePropagation:
    def test_nonpositive_range_rejected(self):
        with pytest.raises(ConfigurationError):
            RangePropagation(0.0)

    def test_disc_edge(self):
        model = RangePropagation(100.0)
        assert model.path_loss_db(A, at(100.0)) < math.inf
        assert model.path_loss_db(A, at(100.1)) == math.inf


class TestFixedLoss:
    def test_constant(self):
        model = FixedLoss(42.0)
        assert model.path_loss_db(A, at(1.0)) == 42.0
        assert model.path_loss_db(A, at(1e6)) == 42.0


class TestReceivedPower:
    """``received_power_watts`` is the one link-power arithmetic: every
    model reaches it through the same dB round-trip of its own
    ``path_loss_db``, bit for bit, and an infinite loss is no power."""

    @pytest.mark.parametrize("model", [
        FreeSpace(2.4e9),
        LogDistance(2.4e9, exponent=3.2),
        FixedLoss(42.0),
        RangePropagation(100.0),
    ], ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("distance", [0.5, 1.0, 10.0, 99.0, 500.0])
    def test_matches_db_curve(self, model, distance):
        tx_power = 0.1
        loss_db = model.path_loss_db(A, at(distance))
        watts = model.received_power_watts(tx_power, A, at(distance))
        if math.isinf(loss_db):
            assert watts == 0.0
        else:
            assert watts == dbm_to_watts(watts_to_dbm(tx_power) - loss_db)
            assert watts == pytest.approx(
                tx_power * 10.0 ** (-loss_db / 10.0), rel=1e-12)

    def test_received_power_uses_db_pipeline(self):
        # The cached/uncached contract: received_power_watts stays in
        # dB space (bit-identical with historical runs), so it is the
        # dB round-trip of path_loss_db.
        model = LogDistance(2.4e9)
        tx_power = 0.1
        expected = 10.0 ** ((10.0 * math.log10(tx_power * 1000.0)
                             - model.path_loss_db(A, at(30.0))) / 10.0) / 1000.0
        assert model.received_power_watts(tx_power, A, at(30.0)) == expected


class TestMaxRange:
    def test_budget_inversion(self):
        model = FreeSpace(2.4e9)
        range_m = max_range_for_budget(model, tx_power_dbm=20.0,
                                       sensitivity_dbm=-90.0)
        # Loss at the found range should equal the 110 dB budget.
        assert model.path_loss_db(A, at(range_m)) == \
            pytest.approx(110.0, abs=0.01)

    def test_higher_power_reaches_farther(self):
        model = LogDistance(2.4e9, exponent=3.0)
        near = max_range_for_budget(model, 10.0, -85.0)
        far = max_range_for_budget(model, 20.0, -85.0)
        assert far > near

    @pytest.mark.parametrize("model, budget_db, expected", [
        (LogDistance(2.4e9, exponent=3.0), 100.0, None),
        (RangePropagation(250.0), 60.0, 250.0),
        (FixedLoss(42.0), 60.0, 1e6),
        (FixedLoss(42.0), 30.0, 0.0),
    ], ids=["LogDistance", "RangePropagation", "FixedLoss-closes",
            "FixedLoss-never-closes"])
    def test_the_budget_closes_up_to_the_range_and_not_beyond(
            self, model, budget_db, expected):
        range_m = max_range_for_budget(model, tx_power_dbm=20.0,
                                       sensitivity_dbm=20.0 - budget_db)
        if expected is not None:
            assert range_m == pytest.approx(expected, abs=1e-6)
        if range_m > 0.0:
            assert model.path_loss_db(A, at(range_m)) <= budget_db
        if range_m < 1e6:
            assert model.path_loss_db(A, at(range_m * (1 + 1e-9) + 1e-9)) \
                > budget_db
