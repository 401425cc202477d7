"""E9 — the §5.2 security ranking, measured.

The source text ranks Wi-Fi security "from best to worst": WPA2+AES,
WPA+AES, WPA+TKIP/AES, WPA+TKIP, WEP, open.  This benchmark turns the
list into numbers along three axes:

1. **attack effort** — the FMS key recovery runs *live* against a real
   WEP implementation; TKIP/CCMP efforts come from the audit model;
   the WPS side channel runs live too,
2. **per-frame overhead** — bytes each suite adds to an MSDU,
3. **crypto cost** — protect+unprotect wall time per KiB of payload
   (a wall clock: the one column that differs run to run).
"""

import time

import pytest

from repro.analysis.tables import render_table
from repro.security.audit import (
    audit_wps,
    ranking_reports,
    verify_text_ranking,
)
from repro.security.suites import (
    SUITE_OVERHEAD,
    SecuritySuite,
    build_link_security,
)


def crypto_cost_us_per_kib(suite, payload=bytes(1024), frames=20):
    a, b = build_link_security(suite, passphrase="benchmark passphrase",
                               ssid="bench", wep_key=b"\x01\x02\x03\x04\x05")
    started = time.perf_counter()
    for index in range(frames):
        b.unprotect(a.protect(payload), now=float(index))
    elapsed = time.perf_counter() - started
    return elapsed / frames * 1e6


def run_ranking():
    reports = ranking_reports(fast=False)  # live FMS crack inside
    wps = audit_wps(pin_seed=9_999_999)
    rows = []
    for rank, report in enumerate(reports, start=1):
        rows.append([
            rank,
            report.suite.value,
            report.method,
            f"{report.effort_amount:.3g} {report.effort_unit}",
            report.seconds,
            "yes" if report.breakable_in_practice else "no",
            SUITE_OVERHEAD[report.suite],
            crypto_cost_us_per_kib(report.suite),
        ])
    return reports, rows, wps


def test_security_ranking(record_result):
    reports, rows, wps = run_ranking()
    text = render_table(
        "E9: Wi-Fi security methods, best to worst (text §5.2 list)",
        ["rank", "suite", "attack", "effort", "attack s",
         "breakable?", "overhead B", "crypto us/KiB"],
        rows, formats=[None, None, None, None, ".3g", None, None, ".0f"])
    text += ("\n\nWPS side channel (undermines even rank 1): "
             f"{wps.effort_amount:.0f} online attempts ~= "
             f"{wps.seconds / 3600:.1f} h — 'disable WPS'.")
    record_result("E9_security_ranking", text)

    # The text's ordering must hold under the measured/modelled efforts.
    assert verify_text_ranking(reports)
    # WEP was cracked live.
    wep = next(report for report in reports
               if report.suite == SecuritySuite.WEP)
    assert wep.measured
    assert wep.seconds < 3600  # "cracked ... in minutes"
    # WPS lands in the text's "2-14 hours" window.
    assert 3600 <= wps.seconds <= 14 * 3600
    # Only WEP and below are practically breakable.
    for report in reports:
        if report.suite in (SecuritySuite.WPA2_AES, SecuritySuite.WPA_AES):
            assert not report.breakable_in_practice
