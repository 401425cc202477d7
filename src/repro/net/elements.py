"""Management-frame bodies and information elements.

802.11 management frames carry fixed fields followed by tagged
information elements (IEs).  This module implements the small subset
the association machinery needs, byte-exact enough to round-trip:

* beacon / probe-response body: timestamp, beacon interval,
  capability field (with the privacy bit), SSID IE, supported-rates IE,
* authentication body: algorithm, transaction sequence, status,
* association request/response bodies.

:meth:`BeaconBody.decode` remembers its last ``(raw, body)`` pair: every
station in range of a beacon decodes the very same ``bytes`` object, and
all but the first get the remembered, frozen body.  A hit is the identity
of the raw bytes, and identity is enough: ``bytes`` are immutable and the
memo keeps them alive, so their id cannot pass to other bytes.  Only
``bytes`` are remembered, and only by a decode that returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import FrameError

#: IE identifiers (from the standard).
IE_SSID = 0
IE_SUPPORTED_RATES = 1
IE_DS_PARAMS = 3  # current channel
#: Traffic indication map: which dozing stations have buffered frames.
#: (Simplified encoding: one byte per AID instead of the partial-virtual
#: bitmap; same information content for AIDs < 256.)
IE_TIM = 5

#: Capability bits.
CAP_ESS = 0x0001
CAP_IBSS = 0x0002
CAP_PRIVACY = 0x0010

#: Authentication algorithm numbers.
AUTH_OPEN_SYSTEM = 0
AUTH_SHARED_KEY = 1

STATUS_SUCCESS = 0
STATUS_REFUSED = 1

MAX_SSID_LEN = 32


def encode_ie(element_id: int, payload: bytes) -> bytes:
    if not 0 <= element_id <= 255:
        raise FrameError(f"bad IE id {element_id}")
    if len(payload) > 255:
        raise FrameError(f"IE payload too long: {len(payload)}")
    return bytes([element_id, len(payload)]) + payload


def decode_ies(raw: bytes) -> List[Tuple[int, bytes]]:
    elements = []
    offset = 0
    while offset < len(raw):
        if offset + 2 > len(raw):
            raise FrameError("truncated IE header")
        element_id = raw[offset]
        length = raw[offset + 1]
        end = offset + 2 + length
        if end > len(raw):
            raise FrameError("truncated IE payload")
        elements.append((element_id, raw[offset + 2:end]))
        offset = end
    return elements


def find_ie(elements: List[Tuple[int, bytes]], element_id: int
            ) -> Optional[bytes]:
    for eid, payload in elements:
        if eid == element_id:
            return payload
    return None


def _validate_ssid(ssid: str) -> bytes:
    encoded = ssid.encode("utf-8")
    if len(encoded) > MAX_SSID_LEN:
        raise FrameError(f"SSID longer than {MAX_SSID_LEN} bytes: {ssid!r}")
    return encoded


@dataclass(frozen=True)
class BeaconBody:
    """Beacon / probe-response body."""

    timestamp_us: int
    beacon_interval_tu: int  # time units of 1024 us
    capability: int
    ssid: str
    supported_rates_mbps: Tuple[float, ...] = ()
    channel: Optional[int] = None
    #: AIDs of dozing stations with traffic buffered at the AP.
    tim_aids: Tuple[int, ...] = ()

    @property
    def privacy(self) -> bool:
        return bool(self.capability & CAP_PRIVACY)

    def encode(self) -> bytes:
        parts = [self.timestamp_us.to_bytes(8, "little"),
                 self.beacon_interval_tu.to_bytes(2, "little"),
                 self.capability.to_bytes(2, "little"),
                 encode_ie(IE_SSID, _validate_ssid(self.ssid))]
        if self.supported_rates_mbps:
            # Encoded in units of 500 kb/s, as the standard does.
            units = bytes(min(int(round(rate * 2)), 255)
                          for rate in self.supported_rates_mbps[:8])
            parts.append(encode_ie(IE_SUPPORTED_RATES, units))
        if self.channel is not None:
            parts.append(encode_ie(IE_DS_PARAMS, bytes([self.channel])))
        if self.tim_aids:
            aids = sorted(set(self.tim_aids))
            if any(not 1 <= aid <= 255 for aid in aids):
                raise FrameError("TIM AIDs must be in 1..255")
            parts.append(encode_ie(IE_TIM, bytes(aids)))
        return b"".join(parts)

    @classmethod
    def decode(cls, raw: bytes) -> "BeaconBody":
        global _last_beacon
        last_raw, last_body = _last_beacon
        if raw is last_raw and type(last_body) is cls:
            return last_body
        body = cls._decode(raw)
        if type(raw) is bytes:
            _last_beacon = (raw, body)
        return body

    @classmethod
    def _decode(cls, raw: bytes) -> "BeaconBody":
        if len(raw) < 12:
            raise FrameError("beacon body too short")
        timestamp = int.from_bytes(raw[0:8], "little")
        interval = int.from_bytes(raw[8:10], "little")
        capability = int.from_bytes(raw[10:12], "little")
        elements = decode_ies(raw[12:])
        ssid_raw = find_ie(elements, IE_SSID)
        if ssid_raw is None:
            raise FrameError("beacon without SSID IE")
        rates_raw = find_ie(elements, IE_SUPPORTED_RATES) or b""
        channel_raw = find_ie(elements, IE_DS_PARAMS)
        tim_raw = find_ie(elements, IE_TIM) or b""
        return cls(timestamp_us=timestamp, beacon_interval_tu=interval,
                   capability=capability, ssid=ssid_raw.decode("utf-8"),
                   supported_rates_mbps=tuple(unit / 2.0 for unit in rates_raw),
                   channel=channel_raw[0] if channel_raw else None,
                   tim_aids=tuple(tim_raw))


#: The last beacon body decoded, with the ``bytes`` it was decoded from.
_last_beacon: Tuple[Optional[bytes], Optional[BeaconBody]] = (None, None)


@dataclass(frozen=True)
class AuthBody:
    """Authentication frame body."""

    algorithm: int
    sequence: int
    status: int = STATUS_SUCCESS
    challenge: bytes = b""

    def encode(self) -> bytes:
        raw = (self.algorithm.to_bytes(2, "little")
               + self.sequence.to_bytes(2, "little")
               + self.status.to_bytes(2, "little"))
        if self.challenge:
            raw += encode_ie(16, self.challenge)  # challenge-text IE
        return raw

    @classmethod
    def decode(cls, raw: bytes) -> "AuthBody":
        if len(raw) < 6:
            raise FrameError("auth body too short")
        algorithm = int.from_bytes(raw[0:2], "little")
        sequence = int.from_bytes(raw[2:4], "little")
        status = int.from_bytes(raw[4:6], "little")
        challenge = b""
        if len(raw) > 6:
            elements = decode_ies(raw[6:])
            challenge = find_ie(elements, 16) or b""
        return cls(algorithm=algorithm, sequence=sequence, status=status,
                   challenge=challenge)


@dataclass(frozen=True)
class AssocRequestBody:
    capability: int
    listen_interval: int
    ssid: str

    def encode(self) -> bytes:
        return (self.capability.to_bytes(2, "little")
                + self.listen_interval.to_bytes(2, "little")
                + encode_ie(IE_SSID, _validate_ssid(self.ssid)))

    @classmethod
    def decode(cls, raw: bytes) -> "AssocRequestBody":
        if len(raw) < 4:
            raise FrameError("assoc request too short")
        capability = int.from_bytes(raw[0:2], "little")
        listen_interval = int.from_bytes(raw[2:4], "little")
        ssid_raw = find_ie(decode_ies(raw[4:]), IE_SSID)
        if ssid_raw is None:
            raise FrameError("assoc request without SSID")
        return cls(capability=capability, listen_interval=listen_interval,
                   ssid=ssid_raw.decode("utf-8"))


@dataclass(frozen=True)
class AssocResponseBody:
    capability: int
    status: int
    association_id: int

    def encode(self) -> bytes:
        return (self.capability.to_bytes(2, "little")
                + self.status.to_bytes(2, "little")
                + self.association_id.to_bytes(2, "little"))

    @classmethod
    def decode(cls, raw: bytes) -> "AssocResponseBody":
        if len(raw) < 6:
            raise FrameError("assoc response too short")
        return cls(capability=int.from_bytes(raw[0:2], "little"),
                   status=int.from_bytes(raw[2:4], "little"),
                   association_id=int.from_bytes(raw[4:6], "little"))
