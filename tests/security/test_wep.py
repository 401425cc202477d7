"""Tests for WEP and its attacks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import IntegrityError, SecurityError
from repro.security.wep import (
    FmsAttack,
    SNAP_FIRST_BYTE,
    WeakIvSample,
    WeakIvTrafficOracle,
    WepCipher,
    crack_wep,
    first_keystream_byte,
    forge_bitflip,
    is_weak_iv,
)

KEY40 = b"\x01\x02\x03\x04\x05"
KEY104 = bytes(range(13))


class TestWepCipher:
    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_round_trip(self, plaintext):
        cipher = WepCipher(KEY40)
        assert cipher.decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_104_bit_key(self):
        cipher = WepCipher(KEY104)
        assert cipher.decrypt(cipher.encrypt(b"data")) == b"data"

    def test_tampering_detected(self):
        cipher = WepCipher(KEY40)
        body = bytearray(cipher.encrypt(b"original message"))
        body[10] ^= 0xFF
        with pytest.raises(IntegrityError):
            cipher.decrypt(bytes(body))

    def test_wrong_key_fails_icv(self):
        body = WepCipher(KEY40).encrypt(b"secret")
        with pytest.raises(IntegrityError):
            WepCipher(b"\x05\x04\x03\x02\x01").decrypt(body)

    def test_sequential_iv(self):
        cipher = WepCipher(KEY40)
        assert cipher.next_iv() == b"\x00\x00\x00"
        assert cipher.next_iv() == b"\x00\x00\x01"

    def test_overhead_is_eight_bytes(self):
        cipher = WepCipher(KEY40)
        assert len(cipher.encrypt(b"x" * 50)) == 50 + 8

    def test_bad_key_length_rejected(self):
        with pytest.raises(SecurityError):
            WepCipher(b"\x00" * 6)

    def test_same_plaintext_different_iv_different_ciphertext(self):
        cipher = WepCipher(KEY40)
        assert cipher.encrypt(b"repeat") != cipher.encrypt(b"repeat")


class TestBitFlipAttack:
    """CRC linearity lets an attacker alter frames without the key."""

    def test_forged_frame_passes_icv(self):
        cipher = WepCipher(KEY40)
        body = cipher.encrypt(b"PAY 0001 TO MALLORY")
        delta = bytes(4) + bytes(a ^ b for a, b in zip(b"0001", b"9999"))
        forged = forge_bitflip(body, delta)
        assert cipher.decrypt(forged) == b"PAY 9999 TO MALLORY"

    def test_forgery_without_knowing_the_key(self):
        """The attacker only touches ciphertext bytes."""
        cipher = WepCipher(KEY104)
        body = cipher.encrypt(b"\xaa12345678")
        forged = forge_bitflip(body, b"\x00\xff")
        decrypted = cipher.decrypt(forged)  # no IntegrityError
        assert decrypted[1] == ord("1") ^ 0xFF

    def test_oversized_delta_rejected(self):
        cipher = WepCipher(KEY40)
        body = cipher.encrypt(b"ab")
        with pytest.raises(SecurityError):
            forge_bitflip(body, bytes(10))


class TestWeakIvMachinery:
    def test_weak_iv_classification(self):
        assert is_weak_iv(b"\x03\xff\x07", key_byte_index=0)
        assert is_weak_iv(b"\x07\xff\x20", key_byte_index=4)
        assert not is_weak_iv(b"\x03\xfe\x07", key_byte_index=0)
        assert not is_weak_iv(b"\x04\xff\x07", key_byte_index=0)

    def test_first_keystream_byte_recovery(self):
        cipher = WepCipher(KEY40)
        iv = b"\x03\xff\x11"
        body = cipher.encrypt(bytes([SNAP_FIRST_BYTE]) + b"rest", iv=iv)
        from repro.security.rc4 import keystream
        expected = keystream(iv + KEY40, 1)[0]
        assert first_keystream_byte(body) == expected

    def test_oracle_counts_all_frames_but_yields_weak_only(self):
        oracle = WeakIvTrafficOracle(WepCipher(KEY40))
        samples = list(oracle.sniff_weak_samples(1 << 16))
        assert oracle.frames_observed == 1 << 16
        assert all(any(is_weak_iv(s.iv, i) for i in range(5))
                   for s in samples)

    def test_attack_rejects_weird_key_length(self):
        with pytest.raises(SecurityError):
            FmsAttack(key_len=7)


class TestFmsAttack:
    def test_insufficient_samples_returns_none(self):
        attack = FmsAttack(key_len=5, min_votes=60)
        attack.observe(WeakIvSample(b"\x03\xff\x01", 0x42))
        assert attack.recover_key() is None

    def test_recovers_a_40_bit_key_at_the_first_check(self):
        """The pinned FMS outcome, in tier-1: the arithmetic weak-IV
        oracle yields enough votes for this key by 2**21 frames."""
        key = b"\x13\x37\xbe\xef\x42"
        assert crack_wep(WepCipher(key), max_frames=1 << 21,
                         check_every=1 << 21) == (key, 2_097_152)

    @pytest.mark.slow
    def test_recovers_40_bit_key(self):
        key = b"\x13\x37\xbe\xef\x42"
        recovered, frames = crack_wep(WepCipher(key), max_frames=1 << 24)
        assert recovered == key
        assert frames <= 1 << 24

    @pytest.mark.slow
    def test_recovers_a_different_key(self):
        key = b"\xc0\xff\xee\x00\x99"
        recovered, _frames = crack_wep(WepCipher(key), max_frames=1 << 24)
        assert recovered == key

    def test_budget_exhaustion_reports_failure(self):
        key = b"\x01\x02\x03\x04\x05"
        recovered, frames = crack_wep(WepCipher(key), max_frames=1 << 12)
        assert recovered is None
        assert frames == 1 << 12
