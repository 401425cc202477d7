"""Traffic generation and measurement sinks."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "generators": ("BulkTransferSource", "CbrSource", "HEADER_SIZE",
        "OnOffSource", "PoissonSource", "SaturatingSource", "decode_packet",
        "encode_packet"),
    "sink": ("DeliveryCounter", "FlowStats", "TrafficSink"),
})
