"""IEEE 802.11 MAC: frames, DCF, fragmentation, dedup, rate adaptation."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "addresses": ("BROADCAST", "MacAddress", "allocate_address",
        "reset_allocator"),
    "backoff": ("BackoffWindow",),
    "dcf": ("DcfConfig", "DcfMac", "MacListener"),
    "dedup": ("DuplicateCache",),
    "fcs": ("crc32", "fcs_bytes", "verify_fcs"),
    "fragmentation": ("Fragment", "Reassembler", "fragment_payload"),
    "frames": ("ACK_SIZE_BYTES", "CTS_SIZE_BYTES", "ControlSubtype",
        "DataSubtype", "Dot11Frame", "FrameControl", "FrameType",
        "MAX_FRAGMENTS", "ManagementSubtype", "RTS_SIZE_BYTES",
        "SEQUENCE_MODULO", "SequenceControl", "make_ack", "make_cts",
        "make_data", "make_management", "make_null", "make_ps_poll",
        "make_rts"),
    "nav": ("Nav",),
    "queueing": ("DropTailQueue", "Msdu"),
    "rate_adapt": ("Aarf", "Arf", "FixedRate", "IdealSnr", "RateController",
        "fixed_rate_factory"),
})
