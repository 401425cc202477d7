"""Uniform link-security suites over the generation-specific ciphers.

The net layer (and the benchmarks) want one interface: *protect this
MSDU payload / unprotect that received body*, regardless of whether the
link runs open, WEP, WPA/TKIP, or WPA2/CCMP.  :class:`LinkSecurity`
provides it, :func:`build_link_security` constructs the matched
transmit/receive pair for both ends of a link from a passphrase (WPA
generations derive keys through the real PSK → 4-way-handshake path).
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

from ..core.errors import ConfigurationError
from .ccmp import CCMP_OVERHEAD, CcmpCipher
from .handshake import FourWayHandshake, derive_psk
from .tkip import TKIP_OVERHEAD, TkipCipher
from .wep import WEP_OVERHEAD, WepCipher


class SecuritySuite(Enum):
    """The security generations, in the source text's §5.2 ranking order."""

    WPA2_AES = "WPA2 + AES"
    WPA_AES = "WPA + AES"
    WPA_TKIP_AES = "WPA + TKIP/AES"
    WPA_TKIP = "WPA + TKIP"
    WEP = "WEP"
    OPEN = "Open network"


#: Per-frame byte overhead each suite adds to an MSDU.
SUITE_OVERHEAD = {
    SecuritySuite.OPEN: 0,
    SecuritySuite.WEP: WEP_OVERHEAD,
    SecuritySuite.WPA_TKIP: TKIP_OVERHEAD,
    SecuritySuite.WPA_TKIP_AES: TKIP_OVERHEAD,
    SecuritySuite.WPA_AES: CCMP_OVERHEAD,
    SecuritySuite.WPA2_AES: CCMP_OVERHEAD,
}


class LinkSecurity:
    """One direction of a protected link."""

    def __init__(self, suite: SecuritySuite, tx_cipher=None, rx_cipher=None):
        self.suite = suite
        self._tx = tx_cipher
        self._rx = rx_cipher

    @property
    def overhead_bytes(self) -> int:
        return SUITE_OVERHEAD[self.suite]

    def protect(self, plaintext: bytes) -> bytes:
        if self._tx is None:
            return plaintext
        return self._tx.encrypt(plaintext)

    def unprotect(self, body: bytes, now: float = 0.0) -> bytes:
        if self._rx is None:
            return body
        if isinstance(self._rx, TkipCipher):
            return self._rx.decrypt(body, now=now)
        return self._rx.decrypt(body)


def build_link_security(suite: SecuritySuite, passphrase: str = "",
                        ssid: str = "", wep_key: Optional[bytes] = None,
                        addr_a: bytes = b"\x02\x00\x00\x00\x00\x01",
                        addr_b: bytes = b"\x02\x00\x00\x00\x00\x02",
                        ) -> Tuple[LinkSecurity, LinkSecurity]:
    """Build the two endpoints (A-side, B-side) of a protected link.

    WPA generations run the real key derivation: PBKDF2 PSK from the
    passphrase/SSID, then a 4-way handshake to expand per-link keys.
    """
    if suite == SecuritySuite.OPEN:
        return LinkSecurity(suite), LinkSecurity(suite)
    if suite == SecuritySuite.WEP:
        if wep_key is None:
            raise ConfigurationError("WEP needs an explicit key")
        # One static key shared by everyone — the WEP design flaw itself.
        a_tx, b_tx = WepCipher(wep_key), WepCipher(wep_key)
        a_rx, b_rx = WepCipher(wep_key), WepCipher(wep_key)
        return (LinkSecurity(suite, a_tx, a_rx),
                LinkSecurity(suite, b_tx, b_rx))
    if not passphrase or not ssid:
        raise ConfigurationError(f"{suite.value} needs passphrase and ssid")
    pmk = derive_psk(passphrase, ssid)
    keys = FourWayHandshake(addr_a, addr_b, pmk, pmk).run().keys
    if suite in (SecuritySuite.WPA_TKIP, SecuritySuite.WPA_TKIP_AES):
        a_tx = TkipCipher(keys.tk, keys.mic_tx, addr_a)
        b_rx = TkipCipher(keys.tk, keys.mic_tx, addr_a)
        b_tx = TkipCipher(keys.tk, keys.mic_rx, addr_b)
        a_rx = TkipCipher(keys.tk, keys.mic_rx, addr_b)
        return (LinkSecurity(suite, a_tx, a_rx),
                LinkSecurity(suite, b_tx, b_rx))
    if suite in (SecuritySuite.WPA_AES, SecuritySuite.WPA2_AES):
        a_tx = CcmpCipher(keys.tk, addr_a)
        b_rx = CcmpCipher(keys.tk, addr_a)
        b_tx = CcmpCipher(keys.tk, addr_b)
        a_rx = CcmpCipher(keys.tk, addr_b)
        return (LinkSecurity(suite, a_tx, a_rx),
                LinkSecurity(suite, b_tx, b_rx))
    raise ConfigurationError(f"unhandled suite {suite}")
