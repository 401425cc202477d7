"""Physical layer: propagation, modulation, standards, medium, radios."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "channel": ("ENERGY_ONLY", "Medium", "Transmission"),
    "error_models": ("BerErrorModel", "ErrorModel", "FixedPerErrorModel",
        "SnrThresholdErrorModel"),
    "interference": ("CaptureModel", "SinrTracker"),
    "modulation": ("Modulation", "q_function"),
    "propagation": ("FixedLoss", "FreeSpace", "LogDistance",
        "PropagationModel", "RangePropagation", "max_range_for_budget"),
    "standards": ("DOT11A", "DOT11AC", "DOT11B", "DOT11G", "DOT11N",
        "DOT11_LEGACY", "PhyMode", "PhyStandard", "STANDARDS", "get_standard"),
    "transceiver": ("Radio", "RadioConfig", "RadioState"),
})
