"""Tests for the from-scratch CRC-32."""

import zlib

from hypothesis import given, strategies as st

from repro.mac.fcs import crc32, fcs_bytes, verify_fcs


class TestCrc32:
    @given(st.binary(max_size=500))
    def test_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_known_vector(self):
        # The classic "123456789" check value.
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty(self):
        assert crc32(b"") == 0

    @given(st.binary(min_size=1, max_size=200),
           st.binary(min_size=1, max_size=200))
    def test_linearity(self, a, b):
        """crc(a^b) == crc(a) ^ crc(b) ^ crc(0...) — the property the WEP
        bit-flip attack exploits."""
        length = min(len(a), len(b))
        a, b = a[:length], b[:length]
        xored = bytes(x ^ y for x, y in zip(a, b))
        assert crc32(xored) == crc32(a) ^ crc32(b) ^ crc32(bytes(length))


class TestFcs:
    @given(st.binary(max_size=300))
    def test_round_trip(self, data):
        assert verify_fcs(data, fcs_bytes(data))

    def test_corruption_detected(self):
        data = b"a perfectly good frame"
        fcs = fcs_bytes(data)
        assert not verify_fcs(data + b"!", fcs)
        assert not verify_fcs(data, bytes(4))

    def test_wrong_fcs_length_rejected(self):
        assert not verify_fcs(b"data", b"\x00" * 3)
