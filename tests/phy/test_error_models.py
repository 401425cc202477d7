"""Tests for SNR -> frame delivery error models."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.phy import error_models
from repro.phy.error_models import (
    BerErrorModel,
    FixedPerErrorModel,
    SnrThresholdErrorModel,
)
from repro.phy.modulation import Modulation, OFDM_QPSK_12


class TestBerErrorModel:
    def test_per_bounds(self):
        model = BerErrorModel()
        for snr in (-20.0, 0.0, 10.0, 40.0):
            per = model.packet_error_rate(snr, 12000, OFDM_QPSK_12)
            assert 0.0 <= per <= 1.0

    def test_per_increases_with_size(self):
        model = BerErrorModel()
        small = model.packet_error_rate(8.0, 100 * 8, OFDM_QPSK_12)
        large = model.packet_error_rate(8.0, 1500 * 8, OFDM_QPSK_12)
        assert large >= small

    def test_per_decreases_with_snr(self):
        model = BerErrorModel()
        pers = [model.packet_error_rate(snr, 12000, OFDM_QPSK_12)
                for snr in range(-5, 30, 5)]
        for earlier, later in zip(pers, pers[1:]):
            assert later <= earlier + 1e-15

    def test_zero_size_never_fails(self):
        model = BerErrorModel()
        assert model.packet_error_rate(-50.0, 0, OFDM_QPSK_12) == 0.0

    def test_tiny_ber_does_not_underflow_to_zero(self):
        # At a moderate SNR the per-bit error is small but a long frame
        # should still have a measurable, nonzero PER.
        model = BerErrorModel()
        per = model.packet_error_rate(11.0, 1500 * 8, OFDM_QPSK_12)
        assert 0.0 < per < 1.0

    def test_frame_survival_sampling_matches_per(self):
        model = BerErrorModel()
        rng = random.Random(1)
        snr = 9.0
        per = model.packet_error_rate(snr, 12000, OFDM_QPSK_12)
        trials = 4000
        failures = sum(
            not model.frame_survives(snr, 12000, OFDM_QPSK_12, rng)
            for _ in range(trials))
        assert failures / trials == pytest.approx(per, abs=0.05)


class NanModulation(Modulation):
    def ber(self, snr_db):
        return math.nan


class DeafModulation(Modulation):
    def ber(self, snr_db):
        raise ValueError("no curve")


class TestOnePerArithmetic:
    """``frame_survives`` memoizes ``packet_error_rate``; it has no
    arithmetic of its own (the compiled reception tail shares the memo,
    see tests/phy/test_edge_parity.py)."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        error_models._per_cache.clear()
        yield
        error_models._per_cache.clear()

    @pytest.mark.parametrize("snr_db, size_bits, modulation", [
        (math.inf, 12000, OFDM_QPSK_12), (-math.inf, 12000, OFDM_QPSK_12),
        (-0.0, 12000, OFDM_QPSK_12), (0.0, 12000, OFDM_QPSK_12),
        (9.0, 0, OFDM_QPSK_12), (-50.0, -8, OFDM_QPSK_12),
        (9.0, 12000, OFDM_QPSK_12), (-30.0, 1, OFDM_QPSK_12),
        (9.0, 12000, NanModulation("nan", 1.0)),
    ])
    def test_verdict_is_one_draw_against_the_method(self, snr_db, size_bits,
                                                    modulation):
        model = BerErrorModel()
        per = model.packet_error_rate(snr_db, size_bits, modulation)
        for _attempt in ("miss", "hit"):
            rng, twin = random.Random(7), random.Random(7)
            verdict = model.frame_survives(snr_db, size_bits, modulation, rng)
            assert verdict is (twin.random() >= per)
            assert rng.getstate() == twin.getstate()       # one draw
        (memoized,) = error_models._per_cache.values()
        assert repr(memoized) == repr(per)

    def test_a_nan_ber_never_delivers(self):
        # The two arithmetics used to disagree here (inline: PER 0.0,
        # always delivered; the method: NaN, never).  The method rules.
        model, rng = BerErrorModel(), random.Random(3)
        deaf = NanModulation("nan", 1.0)
        assert math.isnan(model.packet_error_rate(9.0, 800, deaf))
        assert not any(model.frame_survives(9.0, 800, deaf, rng)
                       for _ in range(50))

    def test_signed_zeros_share_an_entry(self):
        model, rng = BerErrorModel(), random.Random(3)
        model.frame_survives(0.0, 800, OFDM_QPSK_12, rng)
        model.frame_survives(-0.0, 800, OFDM_QPSK_12, rng)
        assert len(error_models._per_cache) == 1

    def test_a_full_memo_is_cleared_not_grown(self):
        limit = error_models._PER_CACHE_LIMIT
        assert limit == 65536
        error_models._per_cache.update(
            ((float(index), 0, None), 0.0) for index in range(limit - 1))
        model, rng = BerErrorModel(), random.Random(3)
        model.frame_survives(1.0, 800, OFDM_QPSK_12, rng)
        assert len(error_models._per_cache) == limit
        model.frame_survives(2.0, 800, OFDM_QPSK_12, rng)
        assert list(error_models._per_cache) == [
            (2.0, 800, OFDM_QPSK_12.memo_id)]

    def test_a_miss_that_raises_draws_nothing_and_stores_nothing(self):
        model, rng = BerErrorModel(), random.Random(3)
        state = rng.getstate()
        with pytest.raises(ValueError, match="no curve"):
            model.frame_survives(9.0, 800, DeafModulation("deaf", 1.0), rng)
        assert rng.getstate() == state
        assert not error_models._per_cache


class TestSnrThreshold:
    def test_cliff(self):
        model = SnrThresholdErrorModel(threshold_db=10.0)
        assert model.packet_error_rate(10.0, 1000, OFDM_QPSK_12) == 0.0
        assert model.packet_error_rate(9.99, 1000, OFDM_QPSK_12) == 1.0

    def test_deterministic_sampling(self):
        model = SnrThresholdErrorModel(threshold_db=5.0)
        rng = random.Random(1)
        assert model.frame_survives(6.0, 1000, OFDM_QPSK_12, rng)
        assert not model.frame_survives(4.0, 1000, OFDM_QPSK_12, rng)


class TestFixedPer:
    def test_constant_rate(self):
        model = FixedPerErrorModel(per=0.25)
        assert model.packet_error_rate(100.0, 10, OFDM_QPSK_12) == 0.25

    def test_sampling_long_run(self):
        model = FixedPerErrorModel(per=0.3)
        rng = random.Random(2)
        trials = 5000
        failures = sum(
            not model.frame_survives(0.0, 1, OFDM_QPSK_12, rng)
            for _ in range(trials))
        assert failures / trials == pytest.approx(0.3, abs=0.03)

    @given(st.floats(min_value=-0.01, max_value=1.01))
    def test_per_validation(self, per):
        if 0.0 <= per <= 1.0:
            FixedPerErrorModel(per=per)
        else:
            with pytest.raises(ValueError):
                FixedPerErrorModel(per=per)
