"""Tests for analysis metrics and table rendering."""

import pytest

from repro.analysis.metrics import (
    bianchi_saturation_throughput,
    bianchi_tau,
)
from repro.analysis.tables import render_series, render_table
from repro.phy.standards import DOT11B


class TestBianchi:
    def test_tau_single_station(self):
        # One station never collides: tau = 2/(W+1).
        tau = bianchi_tau(1, cw_min=31)
        assert tau == pytest.approx(2.0 / 33.0)

    def test_tau_decreases_with_population(self):
        taus = [bianchi_tau(n, cw_min=31) for n in (1, 2, 5, 10, 25, 50)]
        assert taus == sorted(taus, reverse=True)

    def test_tau_in_unit_interval(self):
        for n in (1, 3, 10, 40):
            assert 0.0 < bianchi_tau(n, cw_min=31) < 1.0

    def test_invalid_population_rejected(self):
        with pytest.raises(ValueError):
            bianchi_tau(0, cw_min=31)

    def test_saturation_throughput_shape(self):
        """The canonical Bianchi curve: a gentle decline with n."""
        rates = [bianchi_saturation_throughput(n, DOT11B,
                                               payload_bytes=1000,
                                               data_rate_bps=11e6)
                 for n in (1, 5, 10, 20, 50)]
        assert all(rate > 0 for rate in rates)
        # Monotone decline after the initial point.
        assert rates[1] > rates[2] > rates[3] > rates[4]
        # And everything is below the raw link rate.
        assert all(rate < 11e6 for rate in rates)

    def test_rts_beats_basic_for_large_payloads_many_stations(self):
        # Bianchi's classic setting: a 1 Mb/s channel, where a collided
        # 2000-byte payload wastes 16 ms but a collided RTS only ~0.4 ms.
        basic = bianchi_saturation_throughput(30, DOT11B, 2000, 1e6,
                                              use_rts=False)
        rts = bianchi_saturation_throughput(30, DOT11B, 2000, 1e6,
                                            use_rts=True)
        assert rts > basic

    def test_basic_beats_rts_for_small_payloads_few_stations(self):
        basic = bianchi_saturation_throughput(2, DOT11B, 100, 11e6,
                                              use_rts=False)
        rts = bianchi_saturation_throughput(2, DOT11B, 100, 11e6,
                                            use_rts=True)
        assert basic > rts


class TestTables:
    def test_render_table_structure(self):
        text = render_table("Demo", ["name", "value"],
                            [["alpha", 1.2345], ["beta", 2.0]],
                            formats=[None, ".2f"])
        assert "== Demo ==" in text
        assert "| alpha" in text
        assert "1.23" in text
        lines = text.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # perfectly aligned box

    def test_render_none_as_dash(self):
        text = render_table("t", ["a"], [[None]])
        assert "| -" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table("t", ["a", "b"], [["only one"]])

    def test_render_series(self):
        text = render_series("Fig", "x", ["y1", "y2"],
                             [[1, 10.0, 20.0], [2, 11.0, 21.0]],
                             formats=[None, ".1f", ".1f"])
        assert "Fig" in text
        assert "10.0" in text
