"""Traffic generation and measurement sinks."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "generators": ("BulkTransferSource", "CbrSource", "HEADER_SIZE",
        "OnOffSource", "PoissonSource", "decode_packet", "encode_packet"),
    "sink": ("FlowStats", "TrafficSink"),
})
