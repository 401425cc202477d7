"""CCMP — AES in CCM mode (WPA2).

WPA2's mandatory cipher: AES-128 in Counter mode with CBC-MAC (source
text §5.2: "the mandatory use of AES algorithms and the introduction of
CCMP ... as a replacement for TKIP").  Built entirely on the library's
own :class:`~repro.security.aes.Aes128`.

The CCM parameters follow 802.11i: an 8-byte MIC (M=8), 2-byte length
field (L=2), and a 13-byte nonce of priority || transmitter address ||
48-bit packet number (PN).  The PN doubles as the replay counter.
"""

from __future__ import annotations

from ..core.errors import IntegrityError, ReplayError, SecurityError
from .aes import Aes128, BLOCK_SIZE

MIC_LEN = 8       # M parameter
LENGTH_LEN = 2    # L parameter
NONCE_LEN = 15 - LENGTH_LEN
PN_LEN = 6
#: Per-frame overhead: PN header (6, stands in for the CCMP header) + MIC.
CCMP_OVERHEAD = PN_LEN + MIC_LEN


def _xor_block(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _cbc_mac(aes: Aes128, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """CCM authentication: CBC-MAC over B0 | AAD blocks | payload blocks."""
    flags = 0x40 if aad else 0x00         # Adata bit
    flags |= ((MIC_LEN - 2) // 2) << 3    # M' field
    flags |= LENGTH_LEN - 1               # L' field
    b0 = bytes([flags]) + nonce + len(plaintext).to_bytes(LENGTH_LEN, "big")
    mac = aes.encrypt_block(b0)
    if aad:
        if len(aad) >= 0xFF00:
            raise SecurityError("AAD too long for the short encoding")
        encoded = len(aad).to_bytes(2, "big") + aad
        padding = (-len(encoded)) % BLOCK_SIZE
        encoded += bytes(padding)
        for offset in range(0, len(encoded), BLOCK_SIZE):
            mac = aes.encrypt_block(
                _xor_block(mac, encoded[offset:offset + BLOCK_SIZE]))
    padded = plaintext + bytes((-len(plaintext)) % BLOCK_SIZE)
    for offset in range(0, len(padded), BLOCK_SIZE):
        mac = aes.encrypt_block(
            _xor_block(mac, padded[offset:offset + BLOCK_SIZE]))
    return mac[:MIC_LEN]


def _ctr_crypt(aes: Aes128, nonce: bytes, data: bytes,
               counter_start: int) -> bytes:
    """CCM counter mode; counter 0 encrypts the MIC, payload starts at 1."""
    flags = LENGTH_LEN - 1
    output = bytearray()
    counter = counter_start
    for offset in range(0, len(data), BLOCK_SIZE):
        block = bytes([flags]) + nonce + counter.to_bytes(LENGTH_LEN, "big")
        pad = aes.encrypt_block(block)
        chunk = data[offset:offset + BLOCK_SIZE]
        output.extend(_xor_block(chunk, pad[:len(chunk)]))
        counter += 1
    return bytes(output)


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes,
                plaintext: bytes) -> bytes:
    """Generic CCM seal: ciphertext || encrypted MIC."""
    if len(nonce) != NONCE_LEN:
        raise SecurityError(f"nonce must be {NONCE_LEN} bytes")
    aes = Aes128(key)
    mic = _cbc_mac(aes, nonce, aad, plaintext)
    ciphertext = _ctr_crypt(aes, nonce, plaintext, counter_start=1)
    flags = LENGTH_LEN - 1
    a0 = bytes([flags]) + nonce + (0).to_bytes(LENGTH_LEN, "big")
    encrypted_mic = _xor_block(mic, aes.encrypt_block(a0)[:MIC_LEN])
    return ciphertext + encrypted_mic


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, sealed: bytes) -> bytes:
    """Generic CCM open; raises :class:`IntegrityError` on MIC mismatch."""
    if len(nonce) != NONCE_LEN:
        raise SecurityError(f"nonce must be {NONCE_LEN} bytes")
    if len(sealed) < MIC_LEN:
        raise SecurityError("sealed data shorter than the MIC")
    aes = Aes128(key)
    ciphertext, encrypted_mic = sealed[:-MIC_LEN], sealed[-MIC_LEN:]
    plaintext = _ctr_crypt(aes, nonce, ciphertext, counter_start=1)
    flags = LENGTH_LEN - 1
    a0 = bytes([flags]) + nonce + (0).to_bytes(LENGTH_LEN, "big")
    mic = _xor_block(encrypted_mic, aes.encrypt_block(a0)[:MIC_LEN])
    if _cbc_mac(aes, nonce, aad, plaintext) != mic:
        raise IntegrityError("CCM MIC check failed")
    return plaintext


class CcmpCipher:
    """Seal/open CCMP-protected frame bodies for one link direction."""

    def __init__(self, temporal_key: bytes, transmitter: bytes,
                 priority: int = 0):
        if len(temporal_key) != 16:
            raise SecurityError("CCMP temporal key must be 16 bytes")
        if len(transmitter) != 6:
            raise SecurityError("transmitter address must be 6 bytes")
        self.temporal_key = temporal_key
        self.transmitter = transmitter
        self.priority = priority & 0xF
        self._pn = 0
        self._last_rx_pn = -1

    def _nonce(self, pn: int) -> bytes:
        return bytes([self.priority]) + self.transmitter \
            + pn.to_bytes(PN_LEN, "big")

    def encrypt(self, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encapsulate: PN || CCM(plaintext)."""
        self._pn += 1
        if self._pn >= 1 << 48:
            raise SecurityError("PN exhausted; rekey required")
        pn = self._pn
        sealed = ccm_encrypt(self.temporal_key, self._nonce(pn), aad,
                             plaintext)
        return pn.to_bytes(PN_LEN, "big") + sealed

    def decrypt(self, body: bytes, aad: bytes = b"") -> bytes:
        """Decapsulate with replay and MIC checks."""
        if len(body) < CCMP_OVERHEAD:
            raise SecurityError(f"CCMP body too short: {len(body)}")
        pn = int.from_bytes(body[:PN_LEN], "big")
        if pn <= self._last_rx_pn:
            raise ReplayError(f"PN replay: {pn} <= {self._last_rx_pn}")
        plaintext = ccm_decrypt(self.temporal_key, self._nonce(pn), aad,
                                body[PN_LEN:])
        self._last_rx_pn = pn
        return plaintext

    @property
    def pn(self) -> int:
        return self._pn
