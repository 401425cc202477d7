"""Link-layer security: ciphers, suites, key management, attack harness."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "aes": ("Aes128", "BLOCK_SIZE", "expand_key"),
    "audit": ("AttackReport", "audit_ccmp", "audit_open", "audit_tkip",
        "audit_wep", "audit_wps", "ranking_reports", "verify_text_ranking"),
    "ccmp": ("CCMP_OVERHEAD", "CcmpCipher", "ccm_decrypt", "ccm_encrypt"),
    "handshake": ("FourWayHandshake", "HandshakeResult", "PairwiseKeys",
        "WpsRegistrar", "derive_psk", "derive_ptk", "make_wps_pin", "prf",
        "wps_checksum_digit", "wps_pin_attack"),
    "michael": ("MIC_LEN", "MichaelCountermeasures", "michael"),
    "rc4": ("ksa", "prga", "crypt as rc4_crypt", "keystream as rc4_keystream"),
    "shared_key_auth": ("CHALLENGE_LEN", "CapturedExchange",
        "KeystreamThief", "SharedKeyAuthenticator", "SharedKeyClient",
        "run_legitimate_exchange"),
    "suites": ("LinkSecurity", "SUITE_OVERHEAD", "SecuritySuite",
        "build_link_security"),
    "tkip": ("TKIP_OVERHEAD", "TkipCipher", "phase1_mix", "phase2_mix"),
    "wep": ("FmsAttack", "WEP_OVERHEAD", "WeakIvSample",
        "WeakIvTrafficOracle", "WepCipher", "crack_wep",
        "first_keystream_byte", "forge_bitflip", "is_weak_iv"),
})

# The one export that shares its submodule's name.  Bound now: resolved
# lazily, ``security.michael`` would be the function or the module
# depending on whether anything had imported ``.michael`` first.
from .michael import michael  # noqa: E402
