"""Integration tests: AP + station association and data relay."""

import pytest

from repro.core import Position
from repro.core.errors import ProtocolError
from repro.mac.addresses import BROADCAST
from repro.net.ap import AccessPoint
from repro.net.station import Station, StationState
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G


def build_bss(sim, station_count=2, ssid="testnet", ap_kwargs=None):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid=ssid, **(ap_kwargs or {}))
    ap.start_beaconing()
    stations = [Station(sim, medium, DOT11G, Position(10.0 + i, 0, 0),
                        name=f"sta{i}") for i in range(station_count)]
    return medium, ap, stations


class TestAssociation:
    def test_station_walks_the_state_machine(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        hooks = []
        sta.on_associated(hooks.append)
        sta.associate("testnet")
        sim.run(until=2.0)
        assert sta.state == StationState.ASSOCIATED
        assert sta.serving_ap == ap.bssid
        assert sta.mac.bssid == ap.bssid
        assert hooks == [ap.bssid]
        assert ap.is_associated(sta.address)

    def test_aids_are_unique(self, sim):
        _, ap, stations = build_bss(sim, 3)
        for sta in stations:
            sta.associate("testnet")
        sim.run(until=3.0)
        aids = [record.aid for record in ap.associations.values()]
        assert len(set(aids)) == 3

    def test_wrong_ssid_never_associates(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        sta.associate("not-this-network")
        sim.run(until=3.0)
        assert sta.state != StationState.ASSOCIATED
        assert ap.station_count == 0

    def test_station_limit_refused(self, sim):
        _, ap, stations = build_bss(sim, 3,
                                    ap_kwargs={"max_stations": 2})
        for sta in stations:
            sta.associate("testnet")
        sim.run(until=5.0)
        assert ap.station_count == 2
        refused = [sta for sta in stations if not sta.associated]
        assert len(refused) == 1
        assert refused[0].sta_counters.get("assoc_refused") >= 1

    def test_beacons_populate_tracker(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        sim.run(until=1.0)
        observation = sta.tracker.get(ap.bssid)
        assert observation is not None
        assert observation.ssid == "testnet"
        assert observation.beacons >= 5

    def test_privacy_capability_advertised(self, sim):
        _, ap, (sta,) = build_bss(sim, 1, ap_kwargs={"privacy": True})
        sim.run(until=0.5)
        from repro.net.elements import CAP_PRIVACY
        observation = sta.tracker.get(ap.bssid)
        assert observation.capability & CAP_PRIVACY


class TestDataPath:
    def test_send_requires_association(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        with pytest.raises(ProtocolError):
            sta.send(ap.address, b"too early")

    def test_station_to_station_via_ap(self, sim):
        _, ap, (a, b) = build_bss(sim)
        a.associate("testnet")
        b.associate("testnet")
        sim.run(until=2.0)
        inbox = []
        b.on_receive(lambda src, payload, meta: inbox.append((src, payload)))
        a.send(b.address, b"relayed")
        sim.run(until=3.0)
        assert inbox == [(a.address, b"relayed")]
        assert ap.ap_counters.get("intra_bss_relays") == 1

    def test_station_to_ap_host_traffic(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        sta.associate("testnet")
        sim.run(until=2.0)
        inbox = []
        ap.on_receive(lambda src, payload, meta: inbox.append(payload))
        sta.send(ap.address, b"for the ap itself")
        sim.run(until=3.0)
        assert inbox == [b"for the ap itself"]

    def test_ap_to_station_downlink(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        sta.associate("testnet")
        sim.run(until=2.0)
        inbox = []
        sta.on_receive(lambda src, payload, meta: inbox.append(payload))
        ap.send_to_station(sta.address, b"downlink")
        sim.run(until=3.0)
        assert inbox == [b"downlink"]

    def test_ap_rejects_downlink_to_stranger(self, sim):
        _, ap, (sta,) = build_bss(sim, 1)
        with pytest.raises(ProtocolError):
            ap.send_to_station(sta.address, b"x")

    def test_broadcast_reaches_all_stations(self, sim):
        _, ap, stations = build_bss(sim, 3)
        for sta in stations:
            sta.associate("testnet")
        sim.run(until=3.0)
        inboxes = {sta.name: [] for sta in stations}
        for sta in stations:
            sta.on_receive(
                lambda src, p, m, name=sta.name: inboxes[name].append(p))
        stations[0].send(BROADCAST, b"hello all")
        sim.run(until=4.0)
        # The other two stations get the AP's rebroadcast.
        assert inboxes["sta1"] == [b"hello all"]
        assert inboxes["sta2"] == [b"hello all"]

    def test_unassociated_sender_ignored(self, sim):
        """Class-3 data from a station that never associated is dropped."""
        medium, ap, (a, b) = build_bss(sim)
        b.associate("testnet")
        sim.run(until=2.0)
        inbox = []
        b.on_receive(lambda src, p, m: inbox.append(p))
        # Bypass the Station guard and push a to_ds frame directly,
        # spoofing the BSSID the way a rogue sender would.
        a.mac.bssid = ap.bssid
        a.mac.send(b.address, b"sneaky", meta={"to_ds": True})
        sim.run(until=3.0)
        assert inbox == []
        assert ap.ap_counters.get("unassociated_data") == 1


class TestAdhoc:
    def test_peer_to_peer_without_ap(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        from repro.net.bss import IndependentBss
        ibss = IndependentBss.start(sim)
        a = Station(sim, medium, DOT11G, Position(0, 0, 0), name="a",
                    adhoc=True, ibss_bssid=ibss.bssid)
        b = Station(sim, medium, DOT11G, Position(5, 0, 0), name="b",
                    adhoc=True, ibss_bssid=ibss.bssid)
        ibss.join(a)
        ibss.join(b)
        inbox = []
        b.on_receive(lambda src, p, m: inbox.append(p))
        a.send(b.address, b"direct")
        sim.run(until=1.0)
        assert inbox == [b"direct"]

    def test_adhoc_station_cannot_scan(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        sta = Station(sim, medium, DOT11G, Position(0, 0, 0), adhoc=True)
        with pytest.raises(ProtocolError):
            sta.start_scan("anything")
