"""Mobility models: static, linear, random waypoint."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "models": ("LinearMobility", "MobilityModel", "RandomWaypoint",
        "StaticMobility"),
})
