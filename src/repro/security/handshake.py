"""Key management: PSK derivation, the 4-way handshake, and WPS.

Implements the 802.11i key hierarchy the way WPA/WPA2-PSK deployments
use it (source text §5.2, "WPA-PSK (Pre-Shared Key) ... 256-bit"):

* :func:`derive_psk` — PBKDF2-HMAC-SHA1(passphrase, ssid, 4096, 32):
  the 256-bit pairwise master key,
* :func:`prf` / :func:`derive_ptk` — the 802.11i PRF expanding
  PMK + both MAC addresses + both nonces into the pairwise transient
  key (KCK | KEK | TK | Michael keys),
* :class:`FourWayHandshake` — the EAPOL message-1..4 exchange with KCK
  MIC verification, yielding matching TKs on both ends (and failing
  loudly on a wrong passphrase),
* :class:`WpsRegistrar` / :func:`wps_pin_attack` — the WPS PIN design
  flaw: the 8-digit PIN verifies in two halves (4 + 3 digits + check
  digit), so online search needs at most 10^4 + 10^3 = 11000 attempts
  — the "2-14 hours of sustained effort" the text cites.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import List, Tuple

from ..core.errors import AuthenticationError, SecurityError

PMK_LEN = 32
PTK_LEN = 64  # KCK(16) | KEK(16) | TK(16) | MIC-TX(8) | MIC-RX(8)
NONCE_LEN = 32


def derive_psk(passphrase: str, ssid: str) -> bytes:
    """The WPA-PSK pairwise master key (256-bit)."""
    if not 8 <= len(passphrase) <= 63:
        raise SecurityError("WPA passphrase must be 8..63 characters")
    return hashlib.pbkdf2_hmac("sha1", passphrase.encode(),
                               ssid.encode(), 4096, PMK_LEN)


def prf(key: bytes, label: str, data: bytes, length: int) -> bytes:
    """The 802.11i PRF: iterated HMAC-SHA1 with a counter byte."""
    output = b""
    counter = 0
    while len(output) < length:
        message = label.encode() + b"\x00" + data + bytes([counter])
        output += hmac.new(key, message, hashlib.sha1).digest()
        counter += 1
    return output[:length]


@dataclass(frozen=True)
class PairwiseKeys:
    """The expanded PTK, split into its roles."""

    kck: bytes  # key confirmation key (handshake MICs)
    kek: bytes  # key encryption key (GTK wrapping; unused here)
    tk: bytes   # temporal key (CCMP key, or TKIP encryption key)
    mic_tx: bytes  # Michael key, authenticator->supplicant
    mic_rx: bytes  # Michael key, supplicant->authenticator


def derive_ptk(pmk: bytes, authenticator: bytes, supplicant: bytes,
               anonce: bytes, snonce: bytes) -> PairwiseKeys:
    """Expand the PMK into the PTK, exactly as 802.11i orders the input:
    min/max of the addresses then min/max of the nonces."""
    if len(pmk) != PMK_LEN:
        raise SecurityError(f"PMK must be {PMK_LEN} bytes")
    data = (min(authenticator, supplicant) + max(authenticator, supplicant)
            + min(anonce, snonce) + max(anonce, snonce))
    raw = prf(pmk, "Pairwise key expansion", data, PTK_LEN)
    return PairwiseKeys(kck=raw[0:16], kek=raw[16:32], tk=raw[32:48],
                        mic_tx=raw[48:56], mic_rx=raw[56:64])


def _eapol_mic(kck: bytes, message: bytes) -> bytes:
    return hmac.new(kck, message, hashlib.sha1).digest()[:16]


@dataclass
class HandshakeResult:
    keys: PairwiseKeys
    messages_exchanged: int


class FourWayHandshake:
    """The EAPOL-Key 4-way handshake between authenticator and supplicant.

    Both sides are driven by this one object for clarity; each side only
    ever reads its own inputs (its PMK, the nonces it has seen, the MICs
    it can verify), so the exchange is faithful to the protocol even
    though it runs in-process.
    """

    def __init__(self, authenticator_addr: bytes, supplicant_addr: bytes,
                 authenticator_pmk: bytes, supplicant_pmk: bytes,
                 rng=None):
        import random as _random
        self.aa = authenticator_addr
        self.spa = supplicant_addr
        self.authenticator_pmk = authenticator_pmk
        self.supplicant_pmk = supplicant_pmk
        self._rng = rng if rng is not None else _random.Random(0xA11CE)
        self.transcript: List[str] = []

    def _nonce(self) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(NONCE_LEN))

    def run(self) -> HandshakeResult:
        """Execute messages 1-4.  Raises AuthenticationError when the two
        sides hold different PMKs (wrong passphrase)."""
        # Message 1: authenticator -> supplicant: ANonce (no MIC).
        anonce = self._nonce()
        self.transcript.append("M1: ANonce")
        # Supplicant derives its PTK and answers with SNonce + MIC.
        snonce = self._nonce()
        supplicant_ptk = derive_ptk(self.supplicant_pmk, self.aa, self.spa,
                                    anonce, snonce)
        message2 = b"EAPOL-2" + snonce
        mic2 = _eapol_mic(supplicant_ptk.kck, message2)
        self.transcript.append("M2: SNonce + MIC")
        # Authenticator derives its PTK and verifies the supplicant's MIC.
        authenticator_ptk = derive_ptk(self.authenticator_pmk, self.aa,
                                       self.spa, anonce, snonce)
        if _eapol_mic(authenticator_ptk.kck, message2) != mic2:
            raise AuthenticationError(
                "4-way handshake message 2 MIC mismatch (wrong passphrase?)")
        # Message 3: authenticator proves key knowledge back (+ install).
        message3 = b"EAPOL-3" + anonce
        mic3 = _eapol_mic(authenticator_ptk.kck, message3)
        self.transcript.append("M3: install + MIC")
        if _eapol_mic(supplicant_ptk.kck, message3) != mic3:
            raise AuthenticationError(
                "4-way handshake message 3 MIC mismatch")
        # Message 4: supplicant confirms.
        message4 = b"EAPOL-4"
        mic4 = _eapol_mic(supplicant_ptk.kck, message4)
        if _eapol_mic(authenticator_ptk.kck, message4) != mic4:
            raise AuthenticationError(
                "4-way handshake message 4 MIC mismatch")
        self.transcript.append("M4: confirm")
        assert supplicant_ptk == authenticator_ptk
        return HandshakeResult(keys=supplicant_ptk, messages_exchanged=4)


# --- WPS ----------------------------------------------------------------------

def wps_checksum_digit(seven_digits: int) -> int:
    """The WPS PIN Luhn-style check digit over the first seven digits."""
    accum = 0
    value = seven_digits
    multipliers = [3, 1, 3, 1, 3, 1, 3]
    digits = []
    for _ in range(7):
        digits.append(value % 10)
        value //= 10
    for digit, multiplier in zip(reversed(digits), multipliers):
        accum += digit * multiplier
    return (10 - accum % 10) % 10


def make_wps_pin(seven_digits: int) -> int:
    """A full valid 8-digit WPS PIN from its first seven digits."""
    if not 0 <= seven_digits < 10_000_000:
        raise SecurityError("need seven digits")
    return seven_digits * 10 + wps_checksum_digit(seven_digits)


class WpsRegistrar:
    """An AP-side WPS registrar exposing the split-PIN oracle.

    The protocol proves the PIN in two halves (M4 checks digits 1-4,
    M6 checks digits 5-7 + checksum), and the AP's response reveals
    which half failed — the design flaw behind the Reaver attack.
    """

    def __init__(self, pin: int):
        if not 0 <= pin < 100_000_000:
            raise SecurityError("WPS PIN must be 8 digits")
        if pin % 10 != wps_checksum_digit(pin // 10):
            raise SecurityError("WPS PIN has a bad checksum digit")
        self.pin = pin
        self.attempts = 0

    def try_first_half(self, half: int) -> bool:
        self.attempts += 1
        return half == self.pin // 10_000

    def try_second_half(self, half: int) -> bool:
        self.attempts += 1
        return half == self.pin % 10_000


def wps_pin_attack(registrar: WpsRegistrar) -> Tuple[int, int]:
    """Online split-PIN search; returns (pin, attempts).

    Worst case 10^4 + 10^3 = 11000 attempts versus 10^7 for a monolithic
    PIN — the gap experiment E9 quantifies.
    """
    first_half = None
    for candidate in range(10_000):
        if registrar.try_first_half(candidate):
            first_half = candidate
            break
    if first_half is None:
        raise AuthenticationError("WPS first half not found (impossible)")
    for candidate_3 in range(1_000):
        # Second half = last 4 digits: 3 free digits + the checksum digit.
        seven = first_half * 1_000 + candidate_3
        second_half = candidate_3 * 10 + wps_checksum_digit(seven)
        if registrar.try_second_half(second_half):
            return seven * 10 + wps_checksum_digit(seven), registrar.attempts
    raise AuthenticationError("WPS second half not found (impossible)")
