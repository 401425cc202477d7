"""Traffic generation and measurement sinks."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "generators": ("CbrSource", "HEADER_SIZE", "SaturatingSource",
        "decode_packet", "encode_packet"),
    "sink": ("DeliveryCounter", "FlowStats", "TrafficSink"),
})
