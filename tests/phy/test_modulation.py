"""Tests for modulation BER curves."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.modulation import (
    CCK_11,
    DBPSK_DSSS,
    Modulation,
    OFDM_16QAM_12,
    OFDM_64QAM_34,
    OFDM_BPSK_12,
    OFDM_QPSK_12,
    q_function,
)


class TestQFunction:
    def test_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.0) == pytest.approx(0.1587, abs=1e-3)
        assert q_function(3.0) == pytest.approx(1.35e-3, rel=0.05)

    def test_symmetry(self):
        assert q_function(-1.5) == pytest.approx(1.0 - q_function(1.5))

    @given(st.floats(min_value=-10, max_value=10))
    def test_bounds(self, x):
        assert 0.0 <= q_function(x) <= 1.0


class TestBerCurves:
    @pytest.mark.parametrize("modulation", [
        DBPSK_DSSS, CCK_11, OFDM_BPSK_12, OFDM_QPSK_12,
        OFDM_16QAM_12, OFDM_64QAM_34,
    ])
    def test_ber_decreases_with_snr(self, modulation):
        bers = [modulation.ber(snr) for snr in range(-10, 40, 2)]
        for earlier, later in zip(bers, bers[1:]):
            assert later <= earlier + 1e-15

    @pytest.mark.parametrize("modulation", [
        DBPSK_DSSS, OFDM_BPSK_12, OFDM_64QAM_34,
    ])
    def test_ber_in_unit_interval(self, modulation):
        for snr in (-20.0, 0.0, 15.0, 50.0):
            assert 0.0 <= modulation.ber(snr) <= 0.5 + 1e-12

    def test_higher_order_needs_more_snr(self):
        # At a fixed moderate SNR, denser constellations err more.
        snr = 12.0
        assert OFDM_BPSK_12.ber(snr) <= OFDM_QPSK_12.ber(snr) * 1.5
        assert OFDM_QPSK_12.ber(snr) < OFDM_16QAM_12.ber(snr)
        assert OFDM_16QAM_12.ber(snr) < OFDM_64QAM_34.ber(snr)

    def test_spreading_gain_helps(self):
        unspread = Modulation("plain BPSK", 1.0)
        assert DBPSK_DSSS.ber(0.0) < unspread.ber(0.0)

    def test_high_snr_is_effectively_error_free(self):
        assert OFDM_64QAM_34.ber(40.0) < 1e-12

    def test_zero_efficiency_rejected(self):
        broken = Modulation("broken", 0.0)
        with pytest.raises(ValueError):
            broken.ber(10.0)
