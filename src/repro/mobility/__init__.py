"""Mobility models: static, linear."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "models": ("LinearMobility", "MobilityModel", "StaticMobility"),
})
