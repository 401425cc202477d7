"""IEEE 802.11 MAC frames, byte-exact per the standard frame format.

The frame comprises (source text §4.2): a MAC header — frame control,
duration/ID, up to four addresses, sequence control — the frame body,
and a CRC-32 frame check sequence.  The frame-control subfields
(protocol version, type/subtype, To DS / From DS, More Fragments,
Retry, Power Management, More Data, WEP/Protected, Order) are all
modelled and serialized to their exact bit positions.

Control frames use their special short formats: RTS is 20 bytes
(FC, duration, RA, TA, FCS), CTS and ACK are 14 bytes (FC, duration,
RA, FCS).  PS-Poll carries the association ID in the duration field.

For simulation-speed the hot path uses :meth:`Dot11Frame.wire_size_bytes`
(arithmetic) rather than serializing every frame — and
:func:`frame_size_bytes`, the same arithmetic, where the MAC sizes a frame
it has not built yet; serialization and parsing exist for tests, the
security layer, and trace dumps, and are exact inverses of each other.
Likewise a frame is *judged* once, not once per receiver:
:attr:`Dot11Frame.rx_verdict` derives what every station that decodes it
asks — for whom, how long a reservation, from whom — at the first decode
and caches it on the frame object.  What is immutable is shared: the
``make_*`` constructors intern their :class:`FrameControl`, and a
:class:`~repro.mac.dcf.DcfMac` sends each peer one ACK object, so even an
ACK's verdict is derived once per (MAC, peer), not once per exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from operator import is_
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.errors import FrameError
from .addresses import BROADCAST, MacAddress
from .fcs import fcs_bytes, verify_fcs


class FrameType(IntEnum):
    """The three 802.11 frame types."""

    MANAGEMENT = 0
    CONTROL = 1
    DATA = 2


class ManagementSubtype(IntEnum):
    ASSOC_REQUEST = 0
    ASSOC_RESPONSE = 1
    REASSOC_REQUEST = 2
    REASSOC_RESPONSE = 3
    PROBE_REQUEST = 4
    PROBE_RESPONSE = 5
    BEACON = 8
    DISASSOCIATION = 10
    AUTHENTICATION = 11
    DEAUTHENTICATION = 12


class ControlSubtype(IntEnum):
    PS_POLL = 10
    RTS = 11
    CTS = 12
    ACK = 13


class DataSubtype(IntEnum):
    DATA = 0
    NULL = 4


#: Sequence numbers wrap at 4096 (12-bit field).
SEQUENCE_MODULO = 4096
#: Fragment numbers use a 4-bit field.
MAX_FRAGMENTS = 16

_HEADER_3ADDR = 2 + 2 + 6 + 6 + 6 + 2
_HEADER_4ADDR = _HEADER_3ADDR + 6
_FCS_LEN = 4
#: RTS: FC(2) dur(2) RA(6) TA(6) FCS(4).
RTS_SIZE_BYTES = 20
#: CTS and ACK: FC(2) dur(2) RA(6) FCS(4).
CTS_SIZE_BYTES = 14
ACK_SIZE_BYTES = 14


def frame_size_bytes(frame_type: FrameType, subtype: int, body_bytes: int,
                     four_address: bool = False) -> int:
    """Total on-air size including FCS of a frame of that type, from its
    body length alone — what :meth:`Dot11Frame.wire_size_bytes` answers."""
    if frame_type != FrameType.CONTROL:
        header = _HEADER_4ADDR if four_address else _HEADER_3ADDR
    elif subtype in (ControlSubtype.RTS, ControlSubtype.PS_POLL):
        header = RTS_SIZE_BYTES - _FCS_LEN  # both carry RA and TA
    elif subtype in (ControlSubtype.CTS, ControlSubtype.ACK):
        header = CTS_SIZE_BYTES - _FCS_LEN
    else:
        raise FrameError(f"unknown control subtype {subtype}")
    return header + body_bytes + _FCS_LEN


class _cached:
    """``functools.cached_property`` as 3.12 has it — a non-data
    descriptor whose first read stores the value in the instance
    ``__dict__`` — without the lock 3.11 takes on every miss."""

    def __init__(self, function: Callable[[Any], Any]):
        self.function = function
        self.__doc__ = function.__doc__

    def __get__(self, instance: Any, owner: Any = None) -> Any:
        if instance is None:
            return self
        value = instance.__dict__[self.function.__name__] = \
            self.function(instance)
        return value


@dataclass(frozen=True)
class FrameControl:
    """The 16-bit frame control field, one attribute per subfield."""

    protocol_version: int = 0
    type: FrameType = FrameType.DATA
    subtype: int = 0
    to_ds: bool = False
    from_ds: bool = False
    more_fragments: bool = False
    retry: bool = False
    power_management: bool = False
    more_data: bool = False
    protected: bool = False  # the WEP bit
    order: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.protocol_version <= 3:
            raise FrameError(f"bad protocol version {self.protocol_version}")
        if not 0 <= self.subtype <= 15:
            raise FrameError(f"bad subtype {self.subtype}")

    def to_int(self) -> int:
        value = self.protocol_version
        value |= int(self.type) << 2
        value |= self.subtype << 4
        value |= int(self.to_ds) << 8
        value |= int(self.from_ds) << 9
        value |= int(self.more_fragments) << 10
        value |= int(self.retry) << 11
        value |= int(self.power_management) << 12
        value |= int(self.more_data) << 13
        value |= int(self.protected) << 14
        value |= int(self.order) << 15
        return value

    @classmethod
    def from_int(cls, value: int) -> "FrameControl":
        if not 0 <= value <= 0xFFFF:
            raise FrameError(f"frame control out of range: {value:#x}")
        type_bits = (value >> 2) & 0x3
        if type_bits == 3:
            raise FrameError("reserved frame type 3")
        return cls(
            protocol_version=value & 0x3,
            type=FrameType(type_bits),
            subtype=(value >> 4) & 0xF,
            to_ds=bool(value & (1 << 8)),
            from_ds=bool(value & (1 << 9)),
            more_fragments=bool(value & (1 << 10)),
            retry=bool(value & (1 << 11)),
            power_management=bool(value & (1 << 12)),
            more_data=bool(value & (1 << 13)),
            protected=bool(value & (1 << 14)),
            order=bool(value & (1 << 15)),
        )


@dataclass(frozen=True)
class SequenceControl:
    """Sequence control: 12-bit sequence number + 4-bit fragment number."""

    sequence: int = 0
    fragment: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.sequence < SEQUENCE_MODULO:
            raise FrameError(f"sequence number out of range: {self.sequence}")
        if not 0 <= self.fragment < MAX_FRAGMENTS:
            raise FrameError(f"fragment number out of range: {self.fragment}")

    def to_int(self) -> int:
        return (self.sequence << 4) | self.fragment

    @classmethod
    def from_int(cls, value: int) -> "SequenceControl":
        return cls(sequence=(value >> 4) & 0xFFF, fragment=value & 0xF)


@dataclass(frozen=True)
class Dot11Frame:
    """A full 802.11 MAC frame.

    Address semantics follow the To DS / From DS matrix:

    * addr1 is always the receiver address (RA),
    * addr2 the transmitter address (TA),
    * addr3 carries BSSID / DA / SA depending on direction,
    * addr4 is present only on wireless-DS (To DS and From DS) frames.
    """

    fc: FrameControl
    duration_us: int = 0
    addr1: MacAddress = BROADCAST
    addr2: Optional[MacAddress] = None
    addr3: Optional[MacAddress] = None
    addr4: Optional[MacAddress] = None
    seq: SequenceControl = field(default_factory=SequenceControl)
    body: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.duration_us <= 0xFFFF:
            raise FrameError(f"duration out of range: {self.duration_us}")
        if self.fc.to_ds and self.fc.from_ds and self.addr4 is None:
            raise FrameError("wireless-DS data frames require addr4")

    # --- convenience predicates ------------------------------------------------

    @property
    def is_data(self) -> bool:
        return self.fc.type == FrameType.DATA

    @property
    def is_management(self) -> bool:
        return self.fc.type == FrameType.MANAGEMENT

    @property
    def is_control(self) -> bool:
        return self.fc.type == FrameType.CONTROL

    @property
    def is_rts(self) -> bool:
        return self.is_control and self.fc.subtype == ControlSubtype.RTS

    @property
    def is_cts(self) -> bool:
        return self.is_control and self.fc.subtype == ControlSubtype.CTS

    @property
    def is_ack(self) -> bool:
        return self.is_control and self.fc.subtype == ControlSubtype.ACK

    @property
    def is_beacon(self) -> bool:
        return self.is_management and \
            self.fc.subtype == ManagementSubtype.BEACON

    @property
    def receiver(self) -> MacAddress:
        return self.addr1

    @property
    def transmitter(self) -> Optional[MacAddress]:
        return self.addr2

    def with_retry(self) -> "Dot11Frame":
        """Copy with the Retry bit set (for retransmissions)."""
        return replace(self, fc=replace(self.fc, retry=True))

    @_cached
    def rx_verdict(self) -> Tuple[int, bool, float, Optional[int]]:
        """What every receiver's frame demux asks of this frame:
        ``(receiver address as int, group-addressed, NAV seconds,
        transmitter address as int or None)``.  NAV seconds is the
        reservation a third party takes from the duration field —
        ``duration_us * 1e-6`` — and 0.0 when the field is zero or, on a
        PS-Poll, carries an AID.  A pure function of the fields, derived
        at the first decode and cached in the instance ``__dict__``: not
        a field, so ``==``, ``hash``, ``repr``, ``replace`` and
        ``serialize`` never see it (a replaced frame derives its own).
        """
        receiver = self.addr1
        reserves = self.duration_us > 0 and not (
            self.is_control and self.fc.subtype == ControlSubtype.PS_POLL)
        # The group bit covers broadcast: all ones has it set.
        return (receiver.value, receiver.is_multicast,
                self.duration_us * 1e-6 if reserves else 0.0,
                None if self.addr2 is None else self.addr2.value)

    # --- sizes -----------------------------------------------------------------

    def header_size_bytes(self) -> int:
        return self.wire_size_bytes() - len(self.body) - _FCS_LEN

    def wire_size_bytes(self) -> int:
        """Total on-air size including FCS, without serializing."""
        return frame_size_bytes(self.fc.type, self.fc.subtype, len(self.body),
                                self.addr4 is not None)

    def wire_size_bits(self) -> int:
        return self.wire_size_bytes() * 8

    # --- serialization -----------------------------------------------------------

    def serialize(self) -> bytes:
        """Encode to wire bytes, FCS appended."""
        parts = [self.fc.to_int().to_bytes(2, "little"),
                 self.duration_us.to_bytes(2, "little"),
                 self.addr1.to_bytes()]
        if self.is_control:
            if self.is_rts:
                if self.addr2 is None:
                    raise FrameError("RTS requires a transmitter address")
                parts.append(self.addr2.to_bytes())
            elif self.fc.subtype == ControlSubtype.PS_POLL:
                if self.addr2 is None:
                    raise FrameError("PS-Poll requires a transmitter address")
                parts.append(self.addr2.to_bytes())
            # CTS/ACK carry RA only.
        else:
            if self.addr2 is None or self.addr3 is None:
                raise FrameError("data/management frames need addr2 and addr3")
            parts.append(self.addr2.to_bytes())
            parts.append(self.addr3.to_bytes())
            parts.append(self.seq.to_int().to_bytes(2, "little"))
            if self.addr4 is not None:
                parts.append(self.addr4.to_bytes())
            parts.append(self.body)
        raw = b"".join(parts)
        return raw + fcs_bytes(raw)

    @classmethod
    def parse(cls, raw: bytes) -> "Dot11Frame":
        """Decode wire bytes; raises :class:`FrameError` on a bad FCS."""
        if len(raw) < CTS_SIZE_BYTES:
            raise FrameError(f"frame too short: {len(raw)} bytes")
        if not verify_fcs(raw[:-4], raw[-4:]):
            raise FrameError("FCS mismatch")
        payload = raw[:-4]
        fc = FrameControl.from_int(int.from_bytes(payload[0:2], "little"))
        duration = int.from_bytes(payload[2:4], "little")
        addr1 = MacAddress.from_bytes(payload[4:10])
        if fc.type == FrameType.CONTROL:
            addr2 = None
            if fc.subtype in (ControlSubtype.RTS, ControlSubtype.PS_POLL):
                if len(payload) < 16:
                    raise FrameError("truncated RTS/PS-Poll")
                addr2 = MacAddress.from_bytes(payload[10:16])
            return cls(fc=fc, duration_us=duration, addr1=addr1, addr2=addr2)
        if len(payload) < _HEADER_3ADDR:
            raise FrameError("truncated header")
        addr2 = MacAddress.from_bytes(payload[10:16])
        addr3 = MacAddress.from_bytes(payload[16:22])
        seq = SequenceControl.from_int(int.from_bytes(payload[22:24], "little"))
        offset = 24
        addr4 = None
        if fc.to_ds and fc.from_ds:
            if len(payload) < _HEADER_4ADDR:
                raise FrameError("truncated 4-address header")
            addr4 = MacAddress.from_bytes(payload[24:30])
            offset = 30
        body = payload[offset:]
        return cls(fc=fc, duration_us=duration, addr1=addr1, addr2=addr2,
                   addr3=addr3, addr4=addr4, seq=seq, body=body)


# --- constructors for the common frames --------------------------------------

_frame_controls: Dict[tuple, Tuple[tuple, FrameControl]] = {}


def _frame_control(*fields: Any) -> FrameControl:
    """``FrameControl(0, *fields)`` (type, subtype, then the flags in
    field order), interned: frozen, so one object serves every frame
    with those bits.  A hit must hold the very objects asked for —
    ``1 == True`` as a key, but a frame built with ``1`` stores ``1`` —
    and only real ``bool`` flags are kept, so the memo is bounded by the
    flag combinations in use."""
    hit = _frame_controls.get(fields)
    if hit is not None and all(map(is_, hit[0], fields)):
        return hit[1]
    fc = FrameControl(0, *fields)
    if all(type(flag) is bool for flag in fields[2:]):
        _frame_controls.setdefault(fields, (fields, fc))
    return fc


def make_rts(transmitter: MacAddress, receiver: MacAddress,
             duration_us: int) -> Dot11Frame:
    fc = _frame_control(FrameType.CONTROL, ControlSubtype.RTS)
    return Dot11Frame(fc=fc, duration_us=duration_us, addr1=receiver,
                      addr2=transmitter)


def make_cts(receiver: MacAddress, duration_us: int) -> Dot11Frame:
    fc = _frame_control(FrameType.CONTROL, ControlSubtype.CTS)
    return Dot11Frame(fc=fc, duration_us=duration_us, addr1=receiver)


def make_ack(receiver: MacAddress) -> Dot11Frame:
    fc = _frame_control(FrameType.CONTROL, ControlSubtype.ACK)
    return Dot11Frame(fc=fc, duration_us=0, addr1=receiver)


def make_data(transmitter: MacAddress, receiver: MacAddress,
              bssid: MacAddress, body: bytes, sequence: int,
              fragment: int = 0, more_fragments: bool = False,
              to_ds: bool = False, from_ds: bool = False,
              protected: bool = False, duration_us: int = 0,
              retry: bool = False, power_management: bool = False,
              more_data: bool = False) -> Dot11Frame:
    fc = _frame_control(FrameType.DATA, DataSubtype.DATA, to_ds, from_ds,
                        more_fragments, retry, power_management, more_data,
                        protected)
    return Dot11Frame(fc=fc, duration_us=duration_us, addr1=receiver,
                      addr2=transmitter, addr3=bssid,
                      seq=SequenceControl(sequence=sequence, fragment=fragment),
                      body=body)


def make_ps_poll(transmitter: MacAddress, bssid: MacAddress,
                 aid: int, retry: bool = False) -> Dot11Frame:
    """PS-Poll: the duration/ID field carries the association ID
    (source text §4.2, 'When the sub-type is PS Poll, the field contains
    the association identity (AID) of the transmitting STA')."""
    fc = _frame_control(FrameType.CONTROL, ControlSubtype.PS_POLL,
                        False, False, False, retry)
    return Dot11Frame(fc=fc, duration_us=aid, addr1=bssid,
                      addr2=transmitter)


def make_null(transmitter: MacAddress, receiver: MacAddress,
              bssid: MacAddress, sequence: int,
              power_management: bool, to_ds: bool = True,
              duration_us: int = 0, retry: bool = False) -> Dot11Frame:
    """A null data frame: no payload, just the Power Management bit —
    how a station announces entering/leaving power-save mode."""
    fc = _frame_control(FrameType.DATA, DataSubtype.NULL, to_ds, False,
                        False, retry, power_management)
    return Dot11Frame(fc=fc, duration_us=duration_us, addr1=receiver,
                      addr2=transmitter, addr3=bssid,
                      seq=SequenceControl(sequence=sequence), body=b"")


def make_management(subtype: ManagementSubtype, transmitter: MacAddress,
                    receiver: MacAddress, bssid: MacAddress, body: bytes,
                    sequence: int = 0, duration_us: int = 0,
                    retry: bool = False, power_management: bool = False,
                    more_data: bool = False) -> Dot11Frame:
    fc = _frame_control(FrameType.MANAGEMENT, subtype, False, False, False,
                        retry, power_management, more_data)
    return Dot11Frame(fc=fc, duration_us=duration_us, addr1=receiver,
                      addr2=transmitter, addr3=bssid,
                      seq=SequenceControl(sequence=sequence), body=body)
