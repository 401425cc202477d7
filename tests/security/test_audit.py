"""Tests for the attack-effort audit harness (experiment E9 logic)."""

import pytest

from repro.security.audit import (
    audit_ccmp,
    audit_open,
    audit_tkip,
    audit_wps,
    ranking_reports,
    verify_text_ranking,
)
from repro.security.suites import SecuritySuite


class TestIndividualAudits:
    def test_open_is_free(self):
        report = audit_open()
        assert report.seconds == 0.0
        assert report.breakable_in_practice

    def test_tkip_attack_is_minutes_to_hours_per_packet(self):
        report = audit_tkip()
        assert 60.0 < report.seconds < 24 * 3600.0
        assert "one short packet" in report.prize
        assert report.breakable_in_practice

    def test_ccmp_is_not_practically_breakable(self):
        report = audit_ccmp()
        assert not report.breakable_in_practice
        assert report.effort_amount == pytest.approx(2.0 ** 127)

    def test_wps_search_is_hours_in_the_worst_case(self):
        report = audit_wps(pin_seed=9_999_999)
        assert report.measured
        assert report.effort_amount <= 11_000
        # "2-14 hours of sustained effort" per the source text.
        assert 3600 < report.seconds < 14 * 3600

    def test_wps_lucky_pin_is_faster(self):
        lucky = audit_wps(pin_seed=123)
        worst = audit_wps(pin_seed=9_999_999)
        assert lucky.effort_amount < worst.effort_amount

    def test_reports_have_methods(self):
        for report in (audit_open(), audit_tkip(), audit_ccmp()):
            assert report.method
            assert report.effort_unit


class TestRanking:
    def test_text_ranking_order_holds(self):
        reports = ranking_reports(fast=True)
        assert verify_text_ranking(reports)

    def test_all_six_suites_present_in_order(self):
        reports = ranking_reports(fast=True)
        assert [report.suite for report in reports] == [
            SecuritySuite.WPA2_AES,
            SecuritySuite.WPA_AES,
            SecuritySuite.WPA_TKIP_AES,
            SecuritySuite.WPA_TKIP,
            SecuritySuite.WEP,
            SecuritySuite.OPEN,
        ]

    def test_wep_is_breakable_but_wpa2_is_not(self):
        reports = {report.suite: report
                   for report in ranking_reports(fast=True)}
        assert reports[SecuritySuite.WEP].breakable_in_practice
        assert not reports[SecuritySuite.WPA2_AES].breakable_in_practice

    def test_violated_ranking_detected(self):
        reports = ranking_reports(fast=True)
        reversed_reports = list(reversed(reports))
        assert not verify_text_ranking(reversed_reports)
