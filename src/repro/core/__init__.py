"""Core discrete-event simulation kernel and shared utilities."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "energy": ("EnergyMeter", "PowerProfile"),
    "engine": ("EventHandle", "KERNELS", "PeriodicTask", "Simulator",
        "ckernel_available", "default_kernel", "resolve_kernel"),
    "errors": ("AuthenticationError", "ConfigurationError", "FrameError",
        "IntegrityError", "LinkError", "ProtocolError", "ReplayError",
        "ReproError", "SchedulingError", "SecurityError", "SimulationError"),
    "rng": ("RngRegistry",),
    "stats": ("Counter", "SampleStat", "TimeWeightedStat", "jain_fairness"),
    "topology": ("ORIGIN", "Position", "circle_layout", "grid_layout",
        "hexagonal_cell_centers", "line_layout", "nearest",
        "random_disc_layout"),
    "trace": ("TraceLog", "TraceRecord"),
}, submodules=("units",))
