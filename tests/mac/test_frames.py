"""Tests for 802.11 MAC frame encoding (source text §4.2)."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import FrameError
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.frames import (
    ACK_SIZE_BYTES,
    CTS_SIZE_BYTES,
    ControlSubtype,
    Dot11Frame,
    FrameControl,
    FrameType,
    ManagementSubtype,
    RTS_SIZE_BYTES,
    SequenceControl,
    make_ack,
    make_cts,
    make_data,
    make_management,
    make_null,
    make_ps_poll,
    make_rts,
)

TA = MacAddress.from_string("02:00:00:00:00:01")
RA = MacAddress.from_string("02:00:00:00:00:02")
BSSID = MacAddress.from_string("02:00:00:00:00:03")
A4 = MacAddress.from_string("02:00:00:00:00:04")

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)\
    .map(MacAddress)


class TestFrameControl:
    def test_bit_packing_round_trip(self):
        fc = FrameControl(protocol_version=0, type=FrameType.DATA,
                          subtype=0, to_ds=True, retry=True,
                          protected=True, more_data=True)
        assert FrameControl.from_int(fc.to_int()) == fc

    @given(st.integers(min_value=0, max_value=3),
           st.sampled_from(list(FrameType)),
           st.integers(min_value=0, max_value=15),
           *[st.booleans() for _ in range(8)])
    def test_all_fields_round_trip(self, version, ftype, subtype, to_ds,
                                   from_ds, more_frag, retry, pm,
                                   more_data, protected, order):
        fc = FrameControl(protocol_version=version, type=ftype,
                          subtype=subtype, to_ds=to_ds, from_ds=from_ds,
                          more_fragments=more_frag, retry=retry,
                          power_management=pm, more_data=more_data,
                          protected=protected, order=order)
        assert FrameControl.from_int(fc.to_int()) == fc

    def test_wep_bit_position(self):
        """The WEP/Protected bit is bit 14 of the frame control field."""
        fc = FrameControl(protected=True)
        assert fc.to_int() & (1 << 14)

    def test_reserved_type_rejected(self):
        with pytest.raises(FrameError):
            FrameControl.from_int(0b1100)  # type bits = 3

    def test_bad_subtype_rejected(self):
        with pytest.raises(FrameError):
            FrameControl(subtype=16)


class TestSequenceControl:
    @given(st.integers(min_value=0, max_value=4095),
           st.integers(min_value=0, max_value=15))
    def test_round_trip(self, sequence, fragment):
        sc = SequenceControl(sequence=sequence, fragment=fragment)
        assert SequenceControl.from_int(sc.to_int()) == sc

    def test_field_limits(self):
        with pytest.raises(FrameError):
            SequenceControl(sequence=4096)
        with pytest.raises(FrameError):
            SequenceControl(fragment=16)


class TestControlFrameSizes:
    """Exact on-air sizes from the standard."""

    def test_rts_is_20_bytes(self):
        rts = make_rts(TA, RA, duration_us=100)
        assert rts.wire_size_bytes() == RTS_SIZE_BYTES == 20
        assert len(rts.serialize()) == 20

    def test_cts_is_14_bytes(self):
        cts = make_cts(RA, duration_us=80)
        assert cts.wire_size_bytes() == CTS_SIZE_BYTES == 14
        assert len(cts.serialize()) == 14

    def test_ack_is_14_bytes(self):
        ack = make_ack(RA)
        assert ack.wire_size_bytes() == ACK_SIZE_BYTES == 14
        assert len(ack.serialize()) == 14

    def test_data_header_is_28_plus_body(self):
        frame = make_data(TA, RA, BSSID, b"x" * 100, sequence=1)
        assert frame.wire_size_bytes() == 24 + 100 + 4


class TestSerialization:
    def test_data_round_trip(self):
        frame = make_data(TA, RA, BSSID, b"payload bytes", sequence=77,
                          fragment=2, more_fragments=True, to_ds=True,
                          protected=True, duration_us=314)
        parsed = Dot11Frame.parse(frame.serialize())
        assert parsed == frame

    def test_management_round_trip(self):
        frame = make_management(ManagementSubtype.BEACON, TA, BROADCAST,
                                BSSID, b"beacon body", sequence=9)
        parsed = Dot11Frame.parse(frame.serialize())
        assert parsed == frame
        assert parsed.is_beacon

    def test_rts_round_trip(self):
        rts = make_rts(TA, RA, duration_us=512)
        parsed = Dot11Frame.parse(rts.serialize())
        assert parsed.is_rts
        assert parsed.transmitter == TA
        assert parsed.duration_us == 512

    def test_ack_round_trip(self):
        parsed = Dot11Frame.parse(make_ack(RA).serialize())
        assert parsed.is_ack
        assert parsed.receiver == RA

    def test_four_address_round_trip(self):
        fc = FrameControl(type=FrameType.DATA, to_ds=True, from_ds=True)
        frame = Dot11Frame(fc=fc, addr1=RA, addr2=TA, addr3=BSSID,
                           addr4=A4, body=b"wds")
        parsed = Dot11Frame.parse(frame.serialize())
        assert parsed.addr4 == A4
        assert parsed.body == b"wds"

    @given(st.binary(max_size=256),
           st.integers(min_value=0, max_value=4095),
           st.integers(min_value=0, max_value=15),
           st.booleans(), st.booleans())
    def test_data_round_trip_property(self, body, sequence, fragment,
                                      retry, protected):
        frame = make_data(TA, RA, BSSID, body, sequence=sequence,
                          fragment=fragment, protected=protected)
        if retry:
            frame = frame.with_retry()
        assert Dot11Frame.parse(frame.serialize()) == frame


class TestCorruptionDetection:
    def test_flipped_bit_fails_fcs(self):
        raw = bytearray(make_data(TA, RA, BSSID, b"x" * 50,
                                  sequence=1).serialize())
        raw[30] ^= 0x01
        with pytest.raises(FrameError, match="FCS"):
            Dot11Frame.parse(bytes(raw))

    def test_truncated_frame_rejected(self):
        with pytest.raises(FrameError):
            Dot11Frame.parse(b"\x00" * 6)


class TestValidation:
    def test_wds_without_addr4_rejected(self):
        fc = FrameControl(type=FrameType.DATA, to_ds=True, from_ds=True)
        with pytest.raises(FrameError):
            Dot11Frame(fc=fc, addr1=RA, addr2=TA, addr3=BSSID)

    def test_duration_range(self):
        with pytest.raises(FrameError):
            make_cts(RA, duration_us=0x10000)

    def test_with_retry_sets_only_the_retry_bit(self):
        frame = make_data(TA, RA, BSSID, b"x", sequence=5)
        retried = frame.with_retry()
        assert retried.fc.retry and not frame.fc.retry
        assert retried.body == frame.body
        assert retried.seq == frame.seq


# --- the receive verdict -------------------------------------------------------

MULTICAST = MacAddress(0x01005E000001)

#: One frame of every constructor (built afresh per use: the verdict is
#: cached on the object).
FRAMES = {
    "rts": lambda: make_rts(TA, RA, duration_us=300),
    "cts": lambda: make_cts(RA, duration_us=250),
    "ack": lambda: make_ack(RA),
    "data": lambda: make_data(TA, RA, BSSID, b"x" * 40, sequence=3,
                              duration_us=44, retry=True),
    "broadcast data": lambda: make_data(TA, BROADCAST, BSSID, b"y", 4),
    "multicast data": lambda: make_data(TA, MULTICAST, BSSID, b"z", 5),
    "ps-poll": lambda: make_ps_poll(TA, BSSID, aid=7),
    "null": lambda: make_null(TA, RA, BSSID, 6, power_management=True,
                              duration_us=44),
    "management": lambda: make_management(ManagementSubtype.BEACON, TA,
                                          BROADCAST, BSSID, b"beacon", 9),
    "unicast management": lambda: make_management(
        ManagementSubtype.AUTHENTICATION, TA, RA, BSSID, b"auth", 10,
        duration_us=44),
}


def _inline_verdict(frame):
    """What ``DcfMac.phy_rx_end`` derived inline, once per receiver,
    before the verdict existed."""
    group = frame.addr1.is_broadcast or frame.addr1.is_multicast
    reserves = frame.duration_us > 0 and not (
        frame.is_control and frame.fc.subtype == ControlSubtype.PS_POLL)
    return (frame.addr1.value, group,
            frame.duration_us * 1e-6 if reserves else 0.0,
            None if frame.transmitter is None else frame.transmitter.value)


def _assert_verdict(frame):
    verdict = frame.rx_verdict
    assert verdict == _inline_verdict(frame)
    assert repr(verdict[2]) == repr(_inline_verdict(frame)[2])
    assert [type(item) for item in verdict[:3]] == [int, bool, float]
    assert verdict[3] is None or type(verdict[3]) is int


@pytest.mark.parametrize("kind", sorted(FRAMES))
class TestReceiveVerdict:
    def test_it_is_the_derivation_it_replaces(self, kind):
        frame = FRAMES[kind]()
        _assert_verdict(frame)
        assert frame.rx_verdict[1] is (
            kind in ("broadcast data", "multicast data", "management"))
        assert (frame.rx_verdict[2] > 0.0) is (
            kind in ("rts", "cts", "data", "null", "unicast management"))
        assert (frame.rx_verdict[3] is None) is (kind in ("cts", "ack"))

    def test_it_is_derived_once_and_kept_on_the_object(self, kind):
        frame = FRAMES[kind]()
        assert "rx_verdict" not in vars(frame)
        assert frame.rx_verdict is frame.rx_verdict is vars(frame)["rx_verdict"]

    def test_it_is_not_part_of_the_frames_value(self, kind):
        cold, warm = FRAMES[kind](), FRAMES[kind]()
        judged = warm.rx_verdict
        assert "rx_verdict" not in vars(cold)
        assert cold == warm and hash(cold) == hash(warm)
        assert repr(cold) == repr(warm) and "verdict" not in repr(warm)
        assert cold.serialize() == warm.serialize()
        for frame in (cold, warm):           # before and after it is cached
            for twin in (Dot11Frame.parse(frame.serialize()),
                         copy.copy(frame),
                         pickle.loads(pickle.dumps(frame))):
                assert twin == frame and twin is not frame
                _assert_verdict(twin)
        # A replaced frame is a new frame with a verdict of its own.
        longer = dataclasses.replace(warm, duration_us=warm.duration_us + 1)
        assert "rx_verdict" not in vars(longer)
        _assert_verdict(longer)
        # (A PS-Poll's duration field is an AID: no reservation either way.)
        assert (longer.rx_verdict != judged) is (kind != "ps-poll")
        assert warm.rx_verdict is judged


def test_the_verdict_adds_no_field():
    assert [field.name for field in dataclasses.fields(Dot11Frame)] == [
        "fc", "duration_us", "addr1", "addr2", "addr3", "addr4", "seq",
        "body"]


# --- a frame is built once ------------------------------------------------------

@pytest.mark.parametrize("retry", [False, True])
@pytest.mark.parametrize("power_management, more_data", [
    (False, False), (True, False), (False, True), (True, True)])
def test_constructor_keywords_build_what_the_copies_built(
        retry, power_management, more_data):
    """``DcfMac`` used to build a frame and copy it up to three times
    (PM / More-Data bits, Retry bit, duration); the constructors now take
    all of it, and the frames are the same."""
    def copied(frame, duration_us):
        frame = dataclasses.replace(frame, fc=dataclasses.replace(
            frame.fc, power_management=power_management,
            more_data=more_data))
        if retry:
            frame = frame.with_retry()
        return dataclasses.replace(frame, duration_us=duration_us)

    bits = dict(retry=retry, power_management=power_management,
                more_data=more_data)
    assert make_data(TA, RA, BSSID, b"body", 7, fragment=1,
                     more_fragments=True, to_ds=True, protected=True,
                     duration_us=314, **bits) == copied(
        make_data(TA, RA, BSSID, b"body", 7, fragment=1, more_fragments=True,
                  to_ds=True, protected=True), 314)
    assert make_management(ManagementSubtype.AUTHENTICATION, TA, RA, BSSID,
                           b"auth", sequence=8, duration_us=314,
                           **bits) == copied(
        make_management(ManagementSubtype.AUTHENTICATION, TA, RA, BSSID,
                        b"auth", sequence=8), 314)
    if not more_data:
        null = make_null(TA, RA, BSSID, 9, power_management, duration_us=314,
                         retry=retry)
        assert null == copied(make_null(TA, RA, BSSID, 9, power_management),
                              314)
    if not (power_management or more_data):
        assert make_ps_poll(TA, BSSID, aid=7, retry=retry) == copied(
            make_ps_poll(TA, BSSID, aid=7), 7)
