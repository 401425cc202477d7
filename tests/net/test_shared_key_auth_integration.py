"""Integration: WEP shared-key authentication over the simulated air."""

import pytest

from repro.core import Position
from repro.core.errors import ProtocolError
from repro.net.ap import AccessPoint
from repro.net.elements import AUTH_SHARED_KEY
from repro.net.station import Station, StationState
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11B

KEY = b"\x0a\x0b\x0c\x0d\x0e"
WRONG = b"\x01\x02\x03\x04\x05"


def build(sim, station_key, ap_key=KEY):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11B, Position(0, 0, 0), name="ap",
                     ssid="wepnet", privacy=True,
                     auth_algorithm=AUTH_SHARED_KEY, wep_key=ap_key)
    sta = Station(sim, medium, DOT11B, Position(8, 0, 0), name="sta",
                  auth_algorithm=AUTH_SHARED_KEY, wep_key=station_key)
    ap.start_beaconing()
    sta.associate("wepnet")
    return ap, sta


class TestSharedKeyOverTheAir:
    def test_matching_keys_associate(self, sim):
        ap, sta = build(sim, station_key=KEY)
        sim.run(until=3.0)
        assert sta.state == StationState.ASSOCIATED
        assert ap.ap_counters.get("auth_challenges") >= 1
        assert ap.ap_counters.get("auth_ok") >= 1

    def test_wrong_key_refused(self, sim):
        ap, sta = build(sim, station_key=WRONG)
        sim.run(until=3.0)
        assert sta.state != StationState.ASSOCIATED
        assert ap.ap_counters.get("auth_refused") >= 1
        assert not ap.is_associated(sta.address)

    def test_open_station_refused_by_shared_key_ap(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        ap = AccessPoint(sim, medium, DOT11B, Position(0, 0, 0),
                         ssid="wepnet", auth_algorithm=AUTH_SHARED_KEY,
                         wep_key=KEY)
        sta = Station(sim, medium, DOT11B, Position(8, 0, 0))  # open auth
        ap.start_beaconing()
        sta.associate("wepnet")
        sim.run(until=3.0)
        assert not sta.associated

    def test_configuration_validation(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        with pytest.raises(ProtocolError):
            AccessPoint(sim, medium, DOT11B, Position(0, 0, 0),
                        auth_algorithm=AUTH_SHARED_KEY)
        with pytest.raises(ProtocolError):
            Station(sim, medium, DOT11B, Position(1, 0, 0),
                    auth_algorithm=AUTH_SHARED_KEY)

    def test_data_flows_after_shared_key_auth(self, sim):
        ap, sta = build(sim, station_key=KEY)
        sim.run(until=3.0)
        inbox = []
        ap.on_receive(lambda src, p, meta: inbox.append(p))
        sta.send(ap.address, b"post-auth data")
        sim.run(until=4.0)
        assert inbox == [b"post-auth data"]
