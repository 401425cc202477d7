"""What the addressed path shares, held equal to what it replaces.

``DcfMac`` sends each peer one ACK object, built on first use; a beacon
frame's body decodes to one :class:`BeaconBody` however many stations
hear it; an MSDU is sized once, fragment by fragment, as its context is
prepared, and an MSDU under the fragmentation threshold is one
``Fragment`` without the fragmenter.  Sharing an object is only safe
where it is equal to what a fresh build would give, so every test here
compares the shared object with the fresh one — ``==``, ``hash``,
``repr``, wire bytes — and counts that the sharing happens.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.core.errors import FrameError
from repro.mac.addresses import MacAddress
from repro.mac.fragmentation import Fragment, fragment_payload
from repro.mac.frames import ControlSubtype, Dot11Frame, FrameType, \
    ManagementSubtype, _cached, make_ack
from repro.mac.queueing import Msdu
from repro.net import elements
from repro.net.elements import BeaconBody, CAP_ESS, CAP_PRIVACY
from repro.net.station import Station
from repro.phy.standards import STANDARDS
from repro.scenarios import associate_all, build_ess

from test_dcf import build_network
from test_tx_economy import (BROADCAST, BSSID, MAC_STANDARDS, META, MULTICAST,
                             PEER, _mac)

KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


def _is_ack(frame):
    return frame.fc.type == FrameType.CONTROL \
        and frame.fc.subtype == ControlSubtype.ACK


def _count_ack_verdicts(monkeypatch):
    """Patch ``Dot11Frame.rx_verdict`` to list every ACK it is derived
    for; the demux of either kernel reads it as it reads the original."""
    derived = []
    derive = Dot11Frame.rx_verdict.function

    def rx_verdict(frame):
        if _is_ack(frame):
            derived.append(frame)
        return derive(frame)

    monkeypatch.setattr(Dot11Frame, "rx_verdict", _cached(rx_verdict))
    return derived


# --- one ACK per peer -----------------------------------------------------------

@pytest.mark.parametrize("kernel", KERNELS)
def test_a_mac_acks_each_peer_with_one_frame_equal_to_a_fresh_one(kernel):
    sim = Simulator(seed=3, kernel=kernel)
    _, nodes = build_network(sim, count=4)
    (x, _), (y, _), (p, _), (q, _) = nodes
    heard = []
    for mac, _upper in nodes:
        mac.sniffer = lambda frame, snr: heard.append(frame) \
            if _is_ack(frame) else None
    p.bssid = x.address                 # P's PS-Poll goes to X
    for _ in range(3):
        for sender in (p, q):
            for receiver in (x, y):
                sender.send(receiver.address, b"data")
        p.send_management(ManagementSubtype.AUTHENTICATION,
                          x.address, b"auth")
        p.send_ps_poll(aid=5)
    sim.run(until=2.0)
    # Every frame was acknowledged: the ACKs reached the right peer.
    assert p.counters.get("rx_ack") == 3 * (2 + 2)
    assert q.counters.get("rx_ack") == 3 * 2
    assert x.counters.get("rx_ps_poll") == 3
    # Each receiver holds one ACK per peer, equal to a fresh one ...
    for mac in (x, y):
        assert set(mac._acks) == {p.address.value, q.address.value}
        for peer in (p, q):
            ack = mac._acks[peer.address.value]
            fresh = make_ack(peer.address)
            assert ack == fresh and hash(ack) == hash(fresh)
            assert repr(ack) == repr(fresh)
            assert ack.serialize() == fresh.serialize()
    # ... and sends that object every time: 18 ACKs, four objects, one
    # per (MAC, peer).
    assert len(heard) >= 3 * (4 + 2)
    shared = [x._acks[p.address.value], x._acks[q.address.value],
              y._acks[p.address.value], y._acks[q.address.value]]
    assert len({id(ack) for ack in shared}) == 4
    assert {id(frame) for frame in heard} == {id(ack) for ack in shared}
    assert p._acks == q._acks == {}     # only a receiver builds ACKs


@pytest.mark.parametrize("kernel", KERNELS)
def test_an_ack_s_verdict_is_derived_once_per_mac_and_peer(kernel,
                                                           monkeypatch):
    derived = _count_ack_verdicts(monkeypatch)
    sim = Simulator(seed=4, kernel=kernel)
    _, nodes = build_network(sim, count=4)
    macs = [mac for mac, _upper in nodes]
    exchanges = 10
    for _ in range(exchanges):
        for index, mac in enumerate(macs):
            mac.send(macs[(index + 1) % 4].address, b"ring")
    sim.run(until=2.0)
    acked = sum(mac.counters.get("rx_ack") for mac in macs)
    assert acked == 4 * exchanges
    pairs = {(id(mac), peer) for mac in macs for peer in mac._acks}
    assert len(pairs) == 4
    # Every ACK was heard by three radios; its verdict was derived once.
    assert len(derived) == len({id(frame) for frame in derived}) <= len(pairs)


def test_equal_addresses_share_one_ack_and_a_new_peer_gets_its_own(sim):
    """The entry is keyed by the address's value, not by its object."""
    _, nodes = build_network(sim, count=2)
    (mac, _), _ = nodes
    first = MacAddress(0x020000000101)
    twin = MacAddress(first.value)           # equal, another object
    mac._acknowledge(first)
    mac._acknowledge(twin)
    mac._acknowledge(PEER)
    assert list(mac._acks) == [first.value, PEER.value]
    assert mac._acks[first.value] == make_ack(twin)
    assert mac._acks[PEER.value] == make_ack(PEER)
    assert mac._acks[first.value] is not mac._acks[PEER.value]


# --- one decoded beacon per frame -----------------------------------------------

def _beacon(ssid="repro-ess", stamp=0, tim=()):
    return BeaconBody(timestamp_us=stamp, beacon_interval_tu=100,
                      capability=CAP_ESS, ssid=ssid,
                      supported_rates_mbps=(1.0, 2.0, 5.5, 11.0),
                      channel=6, tim_aids=tim)


def test_the_same_bytes_decode_to_the_same_body():
    raw = _beacon().encode()
    body = BeaconBody.decode(raw)
    assert body == _beacon()
    assert BeaconBody.decode(raw) is body
    assert elements._last_beacon == (raw, body)
    # Equal bytes in another object: a decode of its own, an equal body.
    other = bytes(bytearray(raw))
    assert other == raw and other is not raw
    assert BeaconBody.decode(other) == body


def test_interleaved_beacons_each_decode_as_fresh():
    a, b = _beacon(stamp=1).encode(), _beacon("other", stamp=2).encode()
    for raw in (a, b, a, a, b):
        assert BeaconBody.decode(raw) == BeaconBody._decode(raw)


@settings(max_examples=200, deadline=None)
@given(bodies=st.lists(st.builds(
           BeaconBody, timestamp_us=st.integers(0, 2 ** 64 - 1),
           beacon_interval_tu=st.integers(0, 0xFFFF),
           capability=st.sampled_from([CAP_ESS, CAP_ESS | CAP_PRIVACY]),
           ssid=st.text(max_size=8),
           supported_rates_mbps=st.sampled_from([(), (1.0, 2.0), (54.0,)]),
           channel=st.one_of(st.none(), st.integers(1, 14)),
           tim_aids=st.sampled_from([(), (1,), (3, 7)])),
           min_size=1, max_size=4),
       order=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                      min_size=1, max_size=12))
def test_any_order_of_decodes_equals_fresh_decodes(bodies, order):
    raws = [body.encode() for body in bodies]
    previous = None
    for index, copy in order:
        raw = raws[index % len(raws)]
        if copy:
            raw = bytes(bytearray(raw))        # equal, not identical
        decoded = BeaconBody.decode(raw)
        assert decoded == BeaconBody._decode(raw) == \
            bodies[index % len(raws)]
        if previous is not None and previous[0] is raw:
            assert decoded is previous[1]
        previous = (raw, decoded)


BAD_BEACONS = {
    "short": b"\x00" * 11,
    "truncated IE": b"\x00" * 12 + bytes([0, 10]) + b"ab",
    "no SSID": b"\x00" * 12 + bytes([1, 1, 2]),
    "SSID not UTF-8": b"\x00" * 12 + bytes([0, 2, 0xFF, 0xFE]),
}


@pytest.mark.parametrize("name", sorted(BAD_BEACONS))
def test_a_body_that_raises_raises_every_time_and_is_not_remembered(name):
    good = _beacon().encode()
    body = BeaconBody.decode(good)
    raw = BAD_BEACONS[name]
    for _ in range(3):
        with pytest.raises((FrameError, UnicodeDecodeError)):
            BeaconBody.decode(raw)
        assert elements._last_beacon == (good, body)
    assert BeaconBody.decode(good) is body


def test_a_mutable_buffer_is_decoded_each_time():
    raw = bytearray(_beacon("aaaa").encode())
    assert BeaconBody.decode(raw).ssid == "aaaa"
    raw[14:18] = b"bbbb"
    assert BeaconBody.decode(raw).ssid == "bbbb"


# --- an MSDU sized once ------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(size=st.one_of(st.integers(0, 4096), st.sampled_from(
           [0, 1, 255, 256, 257, 700, 701, 2346, 2347])),
       destination=st.sampled_from([PEER, BSSID, BROADCAST, MULTICAST]),
       protected=st.booleans(), meta=META,
       fragmentation=st.sampled_from([256, 257, 700, 2346]),
       standard=st.sampled_from(MAC_STANDARDS))
def test_every_fragment_is_sized_as_its_frame(size, destination, protected,
                                              meta, fragmentation, standard):
    mac = _mac(STANDARDS[standard],
               fragmentation_threshold_bytes=fragmentation)
    msdu = Msdu(destination=destination, payload=bytes(size),
                protected=protected, meta=dict(meta))
    mgmt = meta.get("mgmt")
    if mgmt is None and not meta.get("ps_poll") and not meta.get("null") \
            and meta.get("to_ds") and meta.get("from_ds"):
        with pytest.raises(FrameError, match="require addr4"):
            mac._prepare_context(msdu)
        return
    ctx = mac._prepare_context(msdu)
    # The one-Fragment shortcut is what the fragmenter would have made.
    expected = [Fragment(0, False, msdu.payload)] if mgmt is not None \
        else fragment_payload(msdu.payload, fragmentation)
    assert ctx.fragments == expected
    assert len(ctx.sizes) == len(ctx.fragments)
    assert ctx.is_broadcast is (destination.is_broadcast
                                or destination.is_multicast)
    sent = 0
    for index in range(len(ctx.fragments)):
        frame = mac._frame_for(msdu, mgmt, ctx.fragments, index,
                               ctx.sequence, retry=False)
        assert ctx.sizes[index] == frame.wire_size_bytes()
        # ... and it is the size the data path counts and transmits
        # (the probe MAC asserts the bits against the frame it was given).
        ctx.frag_index = index
        mac._current = ctx
        mac._send_data_fragment()
        sent += frame.wire_size_bytes()
    assert mac.counters.get("tx_data_bytes") == sent


@pytest.mark.parametrize("threshold", [256, 700, 2346])
def test_an_msdu_under_the_threshold_skips_the_fragmenter(threshold,
                                                          monkeypatch):
    def fragmenter(payload, limit):
        raise AssertionError("the fragmenter ran for one fragment")

    mac = _mac(STANDARDS["802.11b"], fragmentation_threshold_bytes=threshold)
    monkeypatch.setattr("repro.mac.dcf.fragment_payload", fragmenter)
    for size in (0, 1, threshold):
        payload = bytes(size)
        ctx = mac._prepare_context(Msdu(destination=PEER, payload=payload))
        assert ctx.fragments == [Fragment(0, False, payload)]
        assert ctx.fragments[0].payload is payload
    with pytest.raises(AssertionError, match="fragmenter ran"):
        mac._prepare_context(Msdu(destination=PEER,
                                  payload=bytes(threshold + 1)))


# --- counted on an ESS ---------------------------------------------------------------

@pytest.mark.parametrize("kernel", KERNELS)
def test_an_ess_builds_one_ack_per_pair_and_decodes_each_beacon_once(
        kernel, monkeypatch):
    acks_built = []
    real_make_ack = make_ack

    def counting_make_ack(peer):
        acks_built.append(peer)
        return real_make_ack(peer)

    monkeypatch.setattr("repro.mac.dcf.make_ack", counting_make_ack)
    decodes, real_decodes = [], []
    decode, real_decode = BeaconBody.decode.__func__, \
        BeaconBody._decode.__func__

    def counting_decode(cls, raw):
        decodes.append(raw)
        return decode(cls, raw)

    def counting_real_decode(cls, raw):
        real_decodes.append(raw)
        return real_decode(cls, raw)

    monkeypatch.setattr(BeaconBody, "decode", classmethod(counting_decode))
    monkeypatch.setattr(BeaconBody, "_decode",
                        classmethod(counting_real_decode))

    sim = Simulator(seed=7, kernel=kernel)
    scenario = build_ess(sim, ap_count=2, spacing_m=50.0)
    standard = scenario.aps[0].radio.standard
    stations = [Station(sim, scenario.medium, standard,
                        Position(10.0 + 10.0 * index, 0, 0),
                        name=f"sta{index}") for index in range(3)]
    for station in stations:
        station.associate("repro-ess")
    associate_all(sim, stations, timeout=5.0)
    for station in stations:
        for _ in range(5):
            station.send(scenario.aps[0].address, b"up")
    sim.run(until=sim.now + 1.0)

    macs = [ap.mac for ap in scenario.aps] + [s.mac for s in stations]
    # make_ack ran once per distinct (MAC, peer) pair, and those ACKs
    # were sent many times over.
    assert len(acks_built) == sum(len(mac._acks) for mac in macs) > 0
    acked = sum(mac.counters.get("rx_ack") for mac in macs)
    assert acked > 2 * len(acks_built)
    # No more real decodes than beacons (and probe responses) sent, while
    # every station decodes every beacon it hears.
    beacons = sum(ap.ap_counters.get("beacons") for ap in scenario.aps)
    responses = sum(ap.ap_counters.get("probe_responses")
                    for ap in scenario.aps)
    assert len(real_decodes) <= beacons + responses
    assert len(decodes) > 2 * len(real_decodes)
    assert all(s.sta_counters.get("bad_beacons") == 0 for s in stations)
