"""WMAN substrate: the WiMAX-like scheduled point-to-multipoint MAC."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "wimax": ("BURST_PROFILES", "DL_FRACTION", "FRAME_TIME",
        "FRAMING_EFFICIENCY", "SubscriberStation", "WimaxBand",
        "WimaxBaseStation"),
})
