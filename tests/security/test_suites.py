"""Tests for the uniform link-security suites."""

import pytest

from repro.core.errors import ConfigurationError, IntegrityError
from repro.security.suites import (
    SUITE_OVERHEAD,
    SecuritySuite,
    build_link_security,
)

ALL_SUITES = list(SecuritySuite)


def build(suite):
    return build_link_security(suite, passphrase="a strong passphrase",
                               ssid="suite-test",
                               wep_key=b"\x01\x02\x03\x04\x05")


class TestRoundTrips:
    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_a_to_b(self, suite):
        a, b = build(suite)
        protected = a.protect(b"payload across the link")
        assert b.unprotect(protected) == b"payload across the link"

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_b_to_a(self, suite):
        a, b = build(suite)
        protected = b.protect(b"reverse direction")
        assert a.unprotect(protected) == b"reverse direction"

    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_many_frames(self, suite):
        a, b = build(suite)
        for index in range(10):
            payload = bytes([index]) * 20
            assert b.unprotect(a.protect(payload), now=float(index)) == \
                payload


class TestOverhead:
    def test_overhead_table_matches_reality(self):
        for suite in ALL_SUITES:
            a, _b = build(suite)
            payload = b"x" * 50
            assert len(a.protect(payload)) - len(payload) == \
                SUITE_OVERHEAD[suite]
            assert a.overhead_bytes == SUITE_OVERHEAD[suite]

    def test_open_adds_nothing(self):
        a, b = build(SecuritySuite.OPEN)
        assert a.protect(b"clear") == b"clear"

    def test_aes_suites_cost_more_than_open_less_than_tkip(self):
        assert SUITE_OVERHEAD[SecuritySuite.OPEN] == 0
        assert 0 < SUITE_OVERHEAD[SecuritySuite.WEP] < \
            SUITE_OVERHEAD[SecuritySuite.WPA2_AES] < \
            SUITE_OVERHEAD[SecuritySuite.WPA_TKIP]


class TestKeySeparation:
    def test_different_passphrases_do_not_interoperate(self):
        a, _ = build_link_security(SecuritySuite.WPA2_AES,
                                   passphrase="first passphrase",
                                   ssid="net")
        _, b = build_link_security(SecuritySuite.WPA2_AES,
                                   passphrase="other passphrase",
                                   ssid="net")
        with pytest.raises(IntegrityError):
            b.unprotect(a.protect(b"secret"))

    def test_tkip_cross_direction_isolated(self):
        a, b = build(SecuritySuite.WPA_TKIP)
        protected = a.protect(b"to b")
        # a cannot decrypt its own transmit-direction frame.
        with pytest.raises(Exception):
            a.unprotect(protected)


class TestValidation:
    def test_wep_requires_key(self):
        with pytest.raises(ConfigurationError):
            build_link_security(SecuritySuite.WEP)

    def test_wpa_requires_credentials(self):
        with pytest.raises(ConfigurationError):
            build_link_security(SecuritySuite.WPA2_AES)
