"""The transmit path's shortcuts against what they replace.

``DcfMac`` sizes a frame by arithmetic instead of building one to ask it
(``_frame_size`` over ``frames.frame_size_bytes``), reads the airtimes and
waits the frozen standard fixes out of slots filled at construction, the
``make_*`` constructors share one ``FrameControl`` per combination of
bits, and ``Dot11Frame.rx_verdict`` is cached by a lock-free descriptor.
None of it may be observable: every test here holds the new path to the
expressions of the parent commit, transcribed below — sizes, the RTS
decision, every duration field (the floats in the same association
order), frames that ``==``, hash and ``repr`` as the hand-built ones do.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.errors import ConfigurationError, FrameError
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.fragmentation import Fragment, fragment_payload
from repro.mac.frames import (ACK_SIZE_BYTES, CTS_SIZE_BYTES, ControlSubtype,
                              DataSubtype, Dot11Frame, FrameControl, FrameType,
                              ManagementSubtype, SequenceControl, _cached,
                              frame_size_bytes, make_ack, make_cts, make_data,
                              make_management, make_null, make_ps_poll,
                              make_rts)
from repro.mac.queueing import Msdu
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import STANDARDS
from repro.phy.transceiver import Radio

#: Every standard a ``DcfMac`` can stand on (802.11n / ac list no mode at
#: their basic rate, so the constructor has always refused them).
MAC_STANDARDS = sorted(set(STANDARDS) - {"802.11n", "802.11ac"})

US = MacAddress(0x020000000001)
PEER = MacAddress(0x020000000002)
BSSID = MacAddress(0x020000000003)
MULTICAST = MacAddress(0x01005E000001)


class Probe(DcfMac):
    """Keeps what it would have put on the air."""

    __slots__ = ("sent",)

    def _transmit_frame(self, frame, mode, continuation):
        self.sent.append((frame, mode))


def _mac(standard, **config):
    sim = Simulator(seed=5, kernel="python")
    radio = Radio("r", Medium(sim, FixedLoss(50.0)), standard,
                  Position(0.0, 0.0, 0.0))
    mac = Probe(sim, radio, US, config=DcfConfig(**config))
    mac.sent = []
    mac.bssid = BSSID
    return mac


# --- the parent's expressions, transcribed ------------------------------------

def parent_use_rts(mac, msdu, mgmt, fragments):
    first = mac._frame_for(msdu, mgmt, fragments, 0, 0, retry=False)
    return (mgmt is None and not msdu.destination.is_broadcast
            and not msdu.destination.is_multicast
            and first.wire_size_bytes() > mac.config.rts_threshold_bytes)


def parent_ack_time(mac):
    return mac._airtime(ACK_SIZE_BYTES, mac._basic_mode)


def parent_cts_time(mac):
    return mac._airtime(CTS_SIZE_BYTES, mac._basic_mode)


def parent_data_duration(mac, ctx, mode):
    if ctx.is_broadcast:
        return 0
    sifs = mac.radio.standard.sifs
    total = sifs + parent_ack_time(mac)
    if ctx.has_more_fragments:
        next_frame = mac._frame_for(ctx.msdu, ctx.mgmt_subtype, ctx.fragments,
                                    ctx.frag_index + 1, ctx.sequence,
                                    retry=False)
        total += 2 * sifs + \
            mac._airtime(next_frame.wire_size_bytes(), mode) + \
            parent_ack_time(mac)
    return mac._us(total)


def parent_rts_duration(mac, ctx, mode):
    data_frame = mac._frame_for(ctx.msdu, ctx.mgmt_subtype, ctx.fragments,
                                ctx.frag_index, ctx.sequence,
                                retry=ctx.attempts > 0)
    sifs = mac.radio.standard.sifs
    duration = 3 * sifs + parent_cts_time(mac) + \
        mac._airtime(data_frame.wire_size_bytes(), mode) + \
        parent_ack_time(mac)
    return mac._us(duration)


# --- a frame is built to be sent, not to learn its size ------------------------

META = st.fixed_dictionaries({}, optional={
    "mgmt": st.sampled_from([ManagementSubtype.BEACON,
                             ManagementSubtype.AUTHENTICATION,
                             ManagementSubtype.ASSOC_REQUEST]),
    "null": st.booleans(), "pm": st.booleans(), "ps_poll": st.booleans(),
    "aid": st.integers(0, 2007), "to_ds": st.booleans(),
    "from_ds": st.booleans(), "more_data": st.booleans(),
    "source": st.just(PEER)})


@settings(max_examples=300, deadline=None)
@given(size=st.one_of(st.integers(0, 2346), st.sampled_from(
           [0, 1, 255, 256, 257, 512, 2345, 2346])),
       destination=st.sampled_from([PEER, BSSID, BROADCAST, MULTICAST]),
       protected=st.booleans(), meta=META,
       fragmentation=st.sampled_from([256, 257, 700, 2346]),
       rts=st.sampled_from([0, 60, 283, 284, 285, 1000, 2347]),
       standard=st.sampled_from(MAC_STANDARDS))
def test_sizes_decisions_and_durations_are_the_parent_s(
        size, destination, protected, meta, fragmentation, rts, standard):
    mac = _mac(STANDARDS[standard], fragmentation_threshold_bytes=fragmentation,
               rts_threshold_bytes=rts)
    msdu = Msdu(destination=destination, payload=bytes(size),
                protected=protected, meta=dict(meta))
    mgmt = meta.get("mgmt")
    fragments = [Fragment(0, False, msdu.payload)] if mgmt is not None \
        else fragment_payload(msdu.payload, fragmentation)
    try:
        built = [mac._frame_for(msdu, mgmt, fragments, index, 0, retry=False)
                 for index in range(len(fragments))]
    except FrameError as exc:
        # Both DS bits and no addr4: the MSDU fails where it always did,
        # as its context is prepared — not a frame later.
        with pytest.raises(FrameError) as caught:
            mac._prepare_context(msdu)
        assert str(caught.value) == str(exc)
        return
    for frame, fragment in zip(built, fragments):
        assert mac._frame_size(msdu, mgmt, fragment) == \
            frame.wire_size_bytes()
    ctx = mac._prepare_context(msdu)
    assert [fragment.payload for fragment in ctx.fragments] == \
        [fragment.payload for fragment in fragments]
    assert ctx.use_rts is parent_use_rts(mac, msdu, mgmt, fragments)
    modes = mac.radio.standard.modes
    for index in range(len(fragments)):
        ctx.frag_index = index
        for mode in (modes[0], modes[-1]):
            duration = mac._data_duration(ctx, mode)
            assert duration == parent_data_duration(mac, ctx, mode)
            assert type(duration) is int
    ctx.frag_index = 0
    mac._current = ctx
    mode = ctx.controller.current_mode()
    mac._send_rts()
    (rts_frame, rts_mode), = mac.sent
    assert rts_frame.is_rts and rts_mode is mac._basic_mode
    assert rts_frame.duration_us == parent_rts_duration(mac, ctx, mode)
    mac._send_data_fragment()
    data_frame, data_mode = mac.sent[-1]
    assert data_frame == mac._frame_for(
        msdu, mgmt, fragments, 0, ctx.sequence, retry=False,
        duration_us=parent_data_duration(mac, ctx, data_mode))


def test_one_function_sizes_every_frame():
    assert frame_size_bytes(FrameType.CONTROL, ControlSubtype.PS_POLL, 0) == 20
    assert frame_size_bytes(FrameType.CONTROL, ControlSubtype.RTS, 0) == 20
    assert frame_size_bytes(FrameType.CONTROL, ControlSubtype.CTS, 0) == 14
    assert frame_size_bytes(FrameType.CONTROL, ControlSubtype.ACK, 0) == 14
    assert frame_size_bytes(FrameType.DATA, DataSubtype.NULL, 0) == 28
    assert frame_size_bytes(FrameType.DATA, DataSubtype.DATA, 100) == 128
    assert frame_size_bytes(FrameType.MANAGEMENT, 8, 100) == 128
    assert frame_size_bytes(FrameType.DATA, 0, 100, four_address=True) == 134
    with pytest.raises(FrameError, match="unknown control subtype 3"):
        frame_size_bytes(FrameType.CONTROL, 3, 0)
    wds = Dot11Frame(fc=FrameControl(to_ds=True, from_ds=True), addr2=US,
                     addr3=BSSID, addr4=PEER, body=bytes(7))
    assert wds.wire_size_bytes() == 30 + 7 + 4 == len(wds.serialize())
    assert wds.header_size_bytes() == 30
    assert make_ack(PEER).header_size_bytes() == 10


# --- what is constant is computed once -----------------------------------------

@pytest.mark.parametrize("name", MAC_STANDARDS)
def test_the_cached_constants_are_the_expressions_they_replace(name):
    mac = _mac(STANDARDS[name])
    standard = mac.radio.standard
    ack, cts = parent_ack_time(mac), parent_cts_time(mac)
    assert repr(mac._ack_airtime) == repr(ack)
    assert repr(mac._cts_airtime) == repr(cts)
    margin = mac.config.timeout_margin
    # The parent's timeouts, left to right: ((sifs + x) + slot) + margin.
    assert repr(mac._ack_wait + margin) == repr(
        standard.sifs + ack + standard.slot_time + margin)
    assert repr(mac._cts_wait + margin) == repr(
        standard.sifs + cts + standard.slot_time + margin)
    assert mac._ack_reserve_us == mac._us(standard.sifs + ack)
    assert type(mac._ack_reserve_us) is int


@pytest.mark.parametrize("name", sorted(set(STANDARDS) - set(MAC_STANDARDS)))
def test_a_standard_without_a_basic_mode_is_refused_as_before(name):
    with pytest.raises(ConfigurationError, match="has no 6.0 Mb/s mode"):
        _mac(STANDARDS[name])


def test_the_margin_and_the_rts_threshold_are_still_read_live():
    mac = _mac(STANDARDS["802.11b"])
    assert mac.sim.now == 0.0
    mac._after_data_tx()
    assert mac._response._time == mac._ack_wait + 10e-6
    mac.config.timeout_margin = 0.5
    mac._after_data_tx()
    assert mac._response._time == mac._ack_wait + 0.5
    mac._after_rts_tx()
    assert mac._response._time == mac._cts_wait + 0.5
    msdu = Msdu(destination=PEER, payload=bytes(400))
    assert not mac._prepare_context(msdu).use_rts
    mac.config.rts_threshold_bytes = 427        # 24 + 400 + 4 is 428
    assert mac._prepare_context(msdu).use_rts
    mac.config.rts_threshold_bytes = 428
    assert not mac._prepare_context(msdu).use_rts


# --- what is immutable is shared ------------------------------------------------

def _by_hand(kind, *args, **flags):
    """The parent's constructors: the dataclasses called directly."""
    if kind == "rts":
        transmitter, receiver, duration_us = args
        return Dot11Frame(
            fc=FrameControl(type=FrameType.CONTROL,
                            subtype=ControlSubtype.RTS),
            duration_us=duration_us, addr1=receiver, addr2=transmitter)
    if kind == "cts":
        return Dot11Frame(
            fc=FrameControl(type=FrameType.CONTROL,
                            subtype=ControlSubtype.CTS),
            duration_us=args[1], addr1=args[0])
    if kind == "ack":
        return Dot11Frame(
            fc=FrameControl(type=FrameType.CONTROL,
                            subtype=ControlSubtype.ACK),
            duration_us=0, addr1=args[0])
    if kind == "ps_poll":
        transmitter, bssid, aid = args
        return Dot11Frame(
            fc=FrameControl(type=FrameType.CONTROL,
                            subtype=ControlSubtype.PS_POLL, **flags),
            duration_us=aid, addr1=bssid, addr2=transmitter)
    if kind == "null":
        transmitter, receiver, bssid, sequence, power_management = args
        duration_us = flags.pop("duration_us", 0)
        flags.setdefault("to_ds", True)
        return Dot11Frame(
            fc=FrameControl(type=FrameType.DATA, subtype=DataSubtype.NULL,
                            power_management=power_management, **flags),
            duration_us=duration_us, addr1=receiver, addr2=transmitter,
            addr3=bssid, seq=SequenceControl(sequence=sequence), body=b"")
    if kind == "management":
        subtype, transmitter, receiver, bssid, body, sequence = args
        duration_us = flags.pop("duration_us", 0)
        return Dot11Frame(
            fc=FrameControl(type=FrameType.MANAGEMENT, subtype=subtype,
                            **flags),
            duration_us=duration_us, addr1=receiver, addr2=transmitter,
            addr3=bssid, seq=SequenceControl(sequence=sequence), body=body)
    transmitter, receiver, bssid, body, sequence = args
    duration_us = flags.pop("duration_us", 0)
    fragment = flags.pop("fragment", 0)
    return Dot11Frame(
        fc=FrameControl(type=FrameType.DATA, subtype=DataSubtype.DATA,
                        **flags),
        duration_us=duration_us, addr1=receiver, addr2=transmitter,
        addr3=bssid, seq=SequenceControl(sequence=sequence,
                                         fragment=fragment), body=body)


MAKERS = {"rts": make_rts, "cts": make_cts, "ack": make_ack,
          "ps_poll": make_ps_poll, "null": make_null,
          "management": make_management, "data": make_data}
#: A flag as the MAC passes it, and as a caller may: ``1 == True`` and
#: hashes alike, yet is stored, and printed, as given.
FLAG = st.sampled_from([False, True, 0, 1])


def _flags(*names):
    return st.fixed_dictionaries({}, optional=dict.fromkeys(names, FLAG))


CALLS = st.one_of(
    st.tuples(st.just("rts"), st.just((US, PEER, 300)), st.just({})),
    st.tuples(st.just("cts"), st.just((PEER, 250)), st.just({})),
    st.tuples(st.just("ack"), st.just((PEER,)), st.just({})),
    st.tuples(st.just("ps_poll"), st.just((US, BSSID, 7)), _flags("retry")),
    st.tuples(st.just("null"), st.tuples(
        st.just(US), st.just(PEER), st.just(BSSID), st.integers(0, 4095),
        FLAG), _flags("to_ds", "retry")),
    st.tuples(st.just("management"), st.tuples(
        st.sampled_from([ManagementSubtype.BEACON, 8, 11]), st.just(US),
        st.just(PEER), st.just(BSSID), st.just(b"body"),
        st.integers(0, 4095)),
        _flags("retry", "power_management", "more_data")),
    st.tuples(st.just("data"), st.tuples(
        st.just(US), st.just(PEER), st.just(BSSID), st.binary(max_size=40),
        st.integers(0, 4095)),
        _flags("more_fragments", "to_ds", "protected", "retry",
               "power_management", "more_data")))


@settings(max_examples=400, deadline=None)
@given(calls=st.lists(CALLS, min_size=1, max_size=12))
def test_every_constructor_builds_the_hand_built_frame(calls):
    """Whatever was asked before — the memo is process-wide, and an
    earlier ``1`` must not come back for a later ``True``."""
    for kind, args, flags in calls:
        made = MAKERS[kind](*args, **flags)
        expected = _by_hand(kind, *args, **dict(flags))
        assert made == expected and hash(made) == hash(expected)
        assert repr(made) == repr(expected)
        assert made.serialize() == expected.serialize()
        again = MAKERS[kind](*args, **flags)
        shared = all(type(flag) is bool for flag in flags.values()) and (
            kind != "null" or type(args[4]) is bool)
        if shared and kind != "management":
            assert again.fc is made.fc          # one object per combination
        elif not shared:
            assert again.fc is not made.fc      # not interned, stored as given


def test_the_constructors_share_one_frame_control_per_combination():
    first = make_data(US, PEER, BSSID, b"a", 1, retry=True)
    second = make_data(PEER, US, BSSID, b"bb", 2, retry=True, duration_us=44)
    assert first.fc is second.fc
    assert first.fc is not make_data(US, PEER, BSSID, b"a", 1).fc
    assert make_ack(US).fc is make_ack(PEER).fc
    assert make_management(ManagementSubtype.BEACON, US, BROADCAST, BSSID,
                           b"").fc is make_management(
        ManagementSubtype.BEACON, PEER, BROADCAST, BSSID, b"beacon", 9).fc
    # Validated on the miss, as ever; called directly, never shared.
    with pytest.raises(FrameError, match="bad subtype"):
        make_management(16, US, PEER, BSSID, b"")
    with pytest.raises(FrameError, match="bad subtype"):
        make_management(16, US, PEER, BSSID, b"")
    assert FrameControl(type=FrameType.CONTROL, subtype=ControlSubtype.ACK) \
        is not make_ack(US).fc


# --- the verdict's cache ---------------------------------------------------------

def test_the_verdict_is_computed_once_per_frame_object():
    derivations = []

    @dataclasses.dataclass(frozen=True)
    class Counted(Dot11Frame):
        @_cached
        def rx_verdict(self):
            derivations.append(self)
            return Dot11Frame.rx_verdict.function(self)

    frame = Counted(fc=make_data(US, PEER, BSSID, b"", 0).fc, duration_us=44,
                    addr1=PEER, addr2=US, addr3=BSSID)
    twin = dataclasses.replace(frame)
    assert derivations == []
    for _ in range(3):
        assert frame.rx_verdict == (PEER.value, False, 44 * 1e-6, US.value)
    assert derivations == [frame] and derivations[0] is frame
    # A replaced frame is another object: it derives its own, once.
    assert twin == frame and "rx_verdict" not in vars(twin)
    assert twin.rx_verdict == frame.rx_verdict
    assert twin.rx_verdict is vars(twin)["rx_verdict"]
    assert len(derivations) == 2 and derivations[1] is twin


def test_the_verdict_is_a_non_data_descriptor_not_a_field():
    descriptor = vars(Dot11Frame)["rx_verdict"]
    assert Dot11Frame.rx_verdict is descriptor          # read off the class
    assert not hasattr(descriptor, "__set__")           # the __dict__ wins
    assert not isinstance(descriptor, functools.cached_property)  # no RLock
    assert "what every receiver" in descriptor.__doc__.lower()
    assert "rx_verdict" not in {field.name
                                for field in dataclasses.fields(Dot11Frame)}
    frame = make_cts(PEER, 120)
    verdict = frame.rx_verdict
    assert vars(frame) == {**{field.name: getattr(frame, field.name)
                              for field in dataclasses.fields(frame)},
                           "rx_verdict": verdict}
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.rx_verdict = verdict                      # still a frozen frame
