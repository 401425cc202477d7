"""Tests for propagation models."""

import math
import random

import pytest

from repro.core.errors import ConfigurationError
from repro.core.topology import Position
from repro.core.units import dbm_to_watts, watts_to_dbm
from repro.phy.propagation import (
    FixedLoss,
    FreeSpace,
    LogDistance,
    RangePropagation,
    Shadowing,
    TwoRayGround,
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


class TestTwoRayGround:
    def test_free_space_below_crossover(self):
        model = TwoRayGround(2.4e9, tx_height=2.0, rx_height=2.0)
        free = FreeSpace(2.4e9)
        close = model.crossover / 2.0
        assert model.path_loss_db(A, at(close)) == \
            pytest.approx(free.path_loss_db(A, at(close)))

    def test_40db_per_decade_beyond_crossover(self):
        model = TwoRayGround(2.4e9, tx_height=2.0, rx_height=2.0)
        d = model.crossover * 2.0
        near = model.path_loss_db(A, at(d))
        far = model.path_loss_db(A, at(d * 10.0))
        assert far - near == pytest.approx(40.0)

    def test_bad_heights_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoRayGround(2.4e9, tx_height=0.0)


class TestShadowing:
    def test_offset_frozen_per_link(self):
        model = Shadowing(FreeSpace(2.4e9), sigma_db=8.0,
                          rng=random.Random(1))
        first = model.path_loss_db(A, at(50.0))
        second = model.path_loss_db(A, at(50.0))
        assert first == second

    def test_offset_symmetric(self):
        model = Shadowing(FreeSpace(2.4e9), sigma_db=8.0,
                          rng=random.Random(1))
        forward = model.path_loss_db(A, at(50.0))
        backward = model.path_loss_db(at(50.0), A)
        assert forward == backward

    def test_different_links_get_different_offsets(self):
        model = Shadowing(FreeSpace(2.4e9), sigma_db=8.0,
                          rng=random.Random(1))
        base = FreeSpace(2.4e9)
        offsets = {round(model.path_loss_db(A, at(d))
                         - base.path_loss_db(A, at(d)), 6)
                   for d in (10, 20, 30, 40, 50)}
        assert len(offsets) > 1

    def test_zero_sigma_equals_base(self):
        model = Shadowing(FreeSpace(2.4e9), sigma_db=0.0,
                          rng=random.Random(1))
        assert model.path_loss_db(A, at(25.0)) == \
            pytest.approx(FreeSpace(2.4e9).path_loss_db(A, at(25.0)))


class TestRangePropagation:
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
        TwoRayGround(3.5e9),
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

    def test_shadowing_power_includes_frozen_offset(self):
        model = Shadowing(FreeSpace(2.4e9), sigma_db=8.0,
                          rng=random.Random(1))
        loss_db = model.path_loss_db(A, at(50.0))
        watts = model.received_power_watts(0.1, A, at(50.0))
        assert watts == pytest.approx(0.1 * 10.0 ** (-loss_db / 10.0),
                                      rel=1e-12)
        # The offset is frozen per unordered link: same value again,
        # and the same in the other direction.
        assert model.received_power_watts(0.1, A, at(50.0)) == watts
        assert model.received_power_watts(0.1, at(50.0), A) == watts

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
