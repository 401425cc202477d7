"""WWAN substrates: cellular generations and GEO satellite links."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "cellular": ("Cell", "CellularNetwork", "GENERATIONS", "Generation",
        "MobileDevice"),
    "satellite": ("DVBS2_RATE_BPS", "GEO_ALTITUDE_M", "GeoSatellite",
        "GroundStation", "SatelliteLink", "Transponder"),
})
