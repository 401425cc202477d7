"""TKIP — the Temporal Key Integrity Protocol (WPA).

TKIP wraps the WEP hardware path with (source text §5.2):

* a **per-packet key**: a two-phase mixing function turns the 128-bit
  temporal key, the transmitter address, and a 48-bit packet sequence
  counter (TSC) into a fresh RC4 key for every frame — "radically more
  secure than the fixed key used in the WEP system",
* the **Michael** MIC over the plaintext (plus the WEP ICV retained for
  hardware compatibility),
* **TSC replay enforcement**: receivers drop frames whose counter does
  not increase.

Substitution note: the reference TKIP mixing
function is an S-box Feistel network; we implement the same two-phase
structure (phase 1 over TK/TA/high-TSC cached across 65536 frames,
phase 2 over low-TSC per frame, first RC4 key bytes derived from the
TSC with the bit-5 defence against weak IVs) but use SHA-1 as the
mixing primitive.  Every property the experiments measure — per-packet
key freshness, replay protection, countermeasure rate-limiting, frame
overhead — is preserved.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..core.errors import IntegrityError, ReplayError, SecurityError
from ..mac.fcs import crc32
from .michael import MIC_LEN, MichaelCountermeasures, michael
from .rc4 import crypt as rc4_crypt

TSC_LEN = 6
ICV_LEN = 4
#: Per-frame overhead: TSC header (6, stands in for IV+extended IV) +
#: Michael MIC (8) + ICV (4).
TKIP_OVERHEAD = TSC_LEN + MIC_LEN + ICV_LEN

TK_LEN = 16
MIC_KEY_LEN = 8


def phase1_mix(temporal_key: bytes, transmitter: bytes,
               tsc_high: int) -> bytes:
    """Phase 1: mix TK, TA and the high 32 bits of the TSC.

    Recomputed only when the high counter changes (every 65536 frames),
    exactly like the reference implementation caches its P1K.
    """
    if len(temporal_key) != TK_LEN:
        raise SecurityError(f"temporal key must be 16 bytes")
    if len(transmitter) != 6:
        raise SecurityError("transmitter address must be 6 bytes")
    material = temporal_key + transmitter + tsc_high.to_bytes(4, "big")
    return hashlib.sha1(b"tkip-phase1" + material).digest()[:10]


def phase2_mix(phase1: bytes, temporal_key: bytes, tsc_low: int) -> bytes:
    """Phase 2: produce the 16-byte per-packet RC4 key.

    The first three bytes are derived from the low TSC with the
    standard's bit-masking defence (byte1 = (byte0 | 0x20) & 0x7f)
    that makes FMS-weak IV classes unreachable.
    """
    tsc0 = (tsc_low >> 8) & 0xFF
    tsc1 = ((tsc_low >> 8) | 0x20) & 0x7F
    tsc2 = tsc_low & 0xFF
    material = phase1 + temporal_key + tsc_low.to_bytes(2, "big")
    tail = hashlib.sha1(b"tkip-phase2" + material).digest()[:13]
    return bytes([tsc0, tsc1, tsc2]) + tail


class TkipCipher:
    """Seal/open TKIP-protected frame bodies.

    One instance per direction of a link (the TSC is a transmitter
    counter).  ``mic_key`` should differ per direction, as the real
    PTK's Michael keys do.
    """

    def __init__(self, temporal_key: bytes, mic_key: bytes,
                 transmitter: bytes):
        if len(temporal_key) != TK_LEN:
            raise SecurityError("temporal key must be 16 bytes")
        if len(mic_key) != MIC_KEY_LEN:
            raise SecurityError("Michael key must be 8 bytes")
        self.temporal_key = temporal_key
        self.mic_key = mic_key
        self.transmitter = transmitter
        self._tsc = 0
        self._phase1: Optional[bytes] = None
        self._phase1_high: Optional[int] = None
        self._last_rx_tsc = -1
        self.countermeasures = MichaelCountermeasures()

    # --- key mixing ------------------------------------------------------------

    def _per_packet_key(self, tsc: int) -> bytes:
        tsc_high, tsc_low = tsc >> 16, tsc & 0xFFFF
        if self._phase1_high != tsc_high:
            self._phase1 = phase1_mix(self.temporal_key, self.transmitter,
                                      tsc_high)
            self._phase1_high = tsc_high
        assert self._phase1 is not None
        return phase2_mix(self._phase1, self.temporal_key, tsc_low)

    # --- seal / open ------------------------------------------------------------

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encapsulate: TSC || RC4_ppk(plaintext || MIC || ICV)."""
        self._tsc += 1
        if self._tsc >= 1 << 48:
            raise SecurityError("TSC exhausted; rekey required")
        tsc = self._tsc
        mic = michael(self.mic_key, plaintext)
        protected = plaintext + mic
        icv = crc32(protected).to_bytes(4, "little")
        key = self._per_packet_key(tsc)
        return tsc.to_bytes(TSC_LEN, "big") + rc4_crypt(key, protected + icv)

    def decrypt(self, body: bytes, now: float = 0.0) -> bytes:
        """Decapsulate with replay, ICV, MIC and countermeasure checks."""
        if len(body) < TKIP_OVERHEAD:
            raise SecurityError(f"TKIP body too short: {len(body)}")
        if not self.countermeasures.usable(now):
            raise SecurityError("TKIP countermeasures active; link disabled")
        tsc = int.from_bytes(body[:TSC_LEN], "big")
        if tsc <= self._last_rx_tsc:
            raise ReplayError(
                f"TSC replay: {tsc} <= {self._last_rx_tsc}")
        opened = rc4_crypt(self._per_packet_key(tsc), body[TSC_LEN:])
        protected, icv = opened[:-ICV_LEN], opened[-ICV_LEN:]
        if crc32(protected).to_bytes(4, "little") != icv:
            # ICV failures do NOT trigger Michael countermeasures (they
            # indicate noise/WEP-layer damage, handled silently).
            raise IntegrityError("TKIP ICV check failed")
        plaintext, mic = protected[:-MIC_LEN], protected[-MIC_LEN:]
        if michael(self.mic_key, plaintext) != mic:
            self.countermeasures.mic_failure(now)
            raise IntegrityError("Michael MIC failure")
        self._last_rx_tsc = tsc
        return plaintext

    @property
    def tsc(self) -> int:
        return self._tsc
