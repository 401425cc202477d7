"""802.11 network architecture: devices, APs, stations, BSS/ESS, DS."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "ap": ("AccessPoint", "AssociationRecord", "DEFAULT_BEACON_INTERVAL_TU",
        "TU_SECONDS"),
    "bss": ("BasicServiceSet", "ExtendedServiceSet", "IndependentBss",
        "generate_ibss_bssid"),
    "device": ("WirelessDevice",),
    "ds": ("DistributionSystem",),
    "elements": ("AUTH_OPEN_SYSTEM", "AUTH_SHARED_KEY", "AssocRequestBody",
        "AssocResponseBody", "AuthBody", "BeaconBody", "CAP_ESS", "CAP_IBSS",
        "CAP_PRIVACY", "STATUS_REFUSED", "STATUS_SUCCESS", "decode_ies",
        "encode_ie", "find_ie"),
    "roaming": ("BeaconObservation", "BeaconTracker", "RoamingPolicy"),
    "station": ("Station", "StationState"),
})
