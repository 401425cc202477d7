"""WPAN substrates: Bluetooth, ZigBee, IrDA, UWB."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "bluetooth": ("BluetoothDevice", "DH1", "DH3", "DH5", "DeviceClass",
        "HV3", "HV3_INTERVAL_PAIRS", "MAX_ACTIVE_SLAVES", "POLL",
        "PacketType", "Piconet", "SLOT_TIME", "ScatternetBridge"),
    "irda": ("DISCOVERY_RATE_BPS", "HALF_ANGLE_RAD", "IRDA_RATES_BPS",
        "IrdaDevice", "IrdaLink", "MAX_RANGE_M"),
    "uwb": ("EUROPE", "PSD_LIMIT_DBM_PER_MHZ", "USA", "UWB_RATE_LADDER",
        "UwbLink", "UwbRegulatoryDomain"),
    "zigbee": ("DATA_RATE_BPS", "DeviceType", "Topology", "ZigbeeNode",
        "ZigbeePan"),
})
