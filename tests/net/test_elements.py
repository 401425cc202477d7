"""Tests for management-frame bodies and IEs."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Position, Simulator
from repro.core.errors import FrameError
from repro.mac.addresses import BROADCAST, MacAddress
from repro.mac.frames import ManagementSubtype, make_management
from repro.net import elements
from repro.net.elements import (
    AssocRequestBody,
    AssocResponseBody,
    AuthBody,
    AUTH_OPEN_SYSTEM,
    BeaconBody,
    CAP_ESS,
    CAP_PRIVACY,
    STATUS_SUCCESS,
    decode_ies,
    encode_ie,
    find_ie,
)
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11G


class TestIes:
    def test_encode_decode_round_trip(self):
        raw = encode_ie(0, b"myssid") + encode_ie(1, b"\x02\x04\x0b\x16")
        elements = decode_ies(raw)
        assert find_ie(elements, 0) == b"myssid"
        assert find_ie(elements, 1) == b"\x02\x04\x0b\x16"
        assert find_ie(elements, 99) is None

    def test_truncated_ie_rejected(self):
        with pytest.raises(FrameError):
            decode_ies(b"\x00\x05ab")

    def test_too_long_payload_rejected(self):
        with pytest.raises(FrameError):
            encode_ie(0, b"x" * 256)

    @given(st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=40)),
                    max_size=8))
    def test_multi_ie_round_trip(self, elements):
        raw = b"".join(encode_ie(eid, payload)
                       for eid, payload in elements)
        assert decode_ies(raw) == elements


class TestBeaconBody:
    def test_round_trip(self):
        body = BeaconBody(timestamp_us=123456, beacon_interval_tu=100,
                          capability=CAP_ESS | CAP_PRIVACY, ssid="home",
                          supported_rates_mbps=(1.0, 2.0, 5.5, 11.0),
                          channel=6)
        decoded = BeaconBody.decode(body.encode())
        assert decoded.ssid == "home"
        assert decoded.timestamp_us == 123456
        assert decoded.privacy
        assert decoded.channel == 6
        assert decoded.supported_rates_mbps == (1.0, 2.0, 5.5, 11.0)

    def test_no_privacy_bit(self):
        body = BeaconBody(0, 100, CAP_ESS, "open-net")
        assert not BeaconBody.decode(body.encode()).privacy

    def test_ssid_too_long_rejected(self):
        with pytest.raises(FrameError):
            BeaconBody(0, 100, 0, "x" * 33).encode()

    def test_missing_ssid_rejected(self):
        raw = bytes(12)  # fixed fields only, no IEs
        with pytest.raises(FrameError):
            BeaconBody.decode(raw)

    def test_utf8_ssid(self):
        body = BeaconBody(0, 100, 0, "café-network")
        assert BeaconBody.decode(body.encode()).ssid == "café-network"


class TestAuthBody:
    def test_round_trip(self):
        body = AuthBody(AUTH_OPEN_SYSTEM, sequence=1)
        decoded = AuthBody.decode(body.encode())
        assert decoded.algorithm == AUTH_OPEN_SYSTEM
        assert decoded.sequence == 1
        assert decoded.status == STATUS_SUCCESS

    def test_challenge_round_trip(self):
        body = AuthBody(1, 2, challenge=b"challenge-text")
        assert AuthBody.decode(body.encode()).challenge == b"challenge-text"

    def test_too_short_rejected(self):
        with pytest.raises(FrameError):
            AuthBody.decode(b"\x00\x00")


class TestAssocBodies:
    def test_request_round_trip(self):
        body = AssocRequestBody(capability=CAP_ESS, listen_interval=10,
                                ssid="the-net")
        decoded = AssocRequestBody.decode(body.encode())
        assert decoded.ssid == "the-net"
        assert decoded.listen_interval == 10

    def test_response_round_trip(self):
        body = AssocResponseBody(capability=CAP_ESS, status=0,
                                 association_id=7)
        decoded = AssocResponseBody.decode(body.encode())
        assert decoded.association_id == 7
        assert decoded.status == STATUS_SUCCESS

    def test_request_without_ssid_rejected(self):
        with pytest.raises(FrameError):
            AssocRequestBody.decode(bytes(4))


class TestBadBeaconsAtAStation:
    """A station counts what the decoder rejects and nothing else."""

    BAD = {"truncated IE": bytes(12) + b"\x00\x05ab",
           "SSID not UTF-8": bytes(12) + b"\x00\x02\xff\xfe"}

    @staticmethod
    def _station_and_beacon(body):
        sim = Simulator(seed=1)
        medium = Medium(sim, FixedLoss(50.0))
        station = Station(sim, medium, DOT11G, Position(0, 0, 0))
        ap = MacAddress(0x020000000099)
        return station, make_management(ManagementSubtype.BEACON, ap,
                                        BROADCAST, ap, body)

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_a_malformed_body_is_counted_once_and_not_remembered(self, name):
        good = BeaconBody(0, 100, CAP_ESS, "fine").encode()
        remembered = (good, BeaconBody.decode(good))
        station, beacon = self._station_and_beacon(self.BAD[name])
        station.mac_management(beacon, 30.0)
        assert station.sta_counters.get("bad_beacons") == 1
        assert elements._last_beacon == remembered
        assert elements._last_beacon[1] is remembered[1]

    def test_a_bug_in_the_decoder_is_not_a_bad_beacon(self, monkeypatch):
        def broken(cls, raw):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(BeaconBody, "_decode", classmethod(broken))
        station, beacon = self._station_and_beacon(
            BeaconBody(0, 100, CAP_ESS, "fresh").encode())
        with pytest.raises(RuntimeError, match="decoder bug"):
            station.mac_management(beacon, 30.0)
        assert station.sta_counters.get("bad_beacons") == 0
