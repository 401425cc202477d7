"""Tests for the distribution system and extended service sets."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError
from repro.net.ap import AccessPoint
from repro.net.bss import ExtendedServiceSet, IndependentBss, generate_ibss_bssid
from repro.net.ds import DistributionSystem
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G
from repro.scenarios import build_ess


def two_ap_ess(sim, spacing=40.0):
    scenario = build_ess(sim, ap_count=2, spacing_m=spacing)
    return scenario.medium, scenario.ess, scenario.aps


class TestDistributionSystem:
    def test_inter_bss_forwarding(self, sim):
        medium, ess, (ap0, ap1) = two_ap_ess(sim)
        sta0 = Station(sim, medium, DOT11G, Position(5, 0, 0), name="sta0")
        sta1 = Station(sim, medium, DOT11G, Position(35, 0, 0), name="sta1")
        # Pin each station to a specific AP via its tracker.
        sim.run(until=1.0)
        sta0._begin_authentication(sta0.tracker.get(ap0.bssid))
        sta0.target_ssid = "repro-ess"
        sta1.target_ssid = "repro-ess"
        sta1._begin_authentication(sta1.tracker.get(ap1.bssid))
        sim.run(until=3.0)
        assert sta0.serving_ap == ap0.bssid
        assert sta1.serving_ap == ap1.bssid
        inbox = []
        sta1.on_receive(lambda src, p, m: inbox.append((src, p)))
        sta0.send(sta1.address, b"across the DS")
        sim.run(until=5.0)
        assert inbox == [(sta0.address, b"across the DS")]
        assert ess.ds.counters.get("forwarded") == 1

    def test_portal_receives_unknown_destinations(self, sim):
        medium, ess, (ap0, _ap1) = two_ap_ess(sim)
        portal_inbox = []
        ess.ds.set_portal(lambda src, dst, p: portal_inbox.append(p))
        sta = Station(sim, medium, DOT11G, Position(5, 0, 0), name="sta")
        sim.run(until=1.0)
        sta.target_ssid = "repro-ess"
        sta._begin_authentication(sta.tracker.get(ap0.bssid))
        sim.run(until=3.0)
        from repro.mac.addresses import MacAddress
        internet_host = MacAddress.from_string("00:11:22:33:44:55")
        sta.send(internet_host, b"to the wired world")
        sim.run(until=4.0)
        assert portal_inbox == [b"to the wired world"]

    def test_portal_injection_reaches_station(self, sim):
        medium, ess, (ap0, _ap1) = two_ap_ess(sim)
        sta = Station(sim, medium, DOT11G, Position(5, 0, 0), name="sta")
        sim.run(until=1.0)
        sta.target_ssid = "repro-ess"
        sta._begin_authentication(sta.tracker.get(ap0.bssid))
        sim.run(until=3.0)
        inbox = []
        sta.on_receive(lambda src, p, m: inbox.append(p))
        from repro.mac.addresses import MacAddress
        server = MacAddress.from_string("00:11:22:33:44:55")
        ess.ds.inject_from_portal(server, sta.address, b"inbound")
        sim.run(until=4.0)
        assert inbox == [b"inbound"]

    def test_undeliverable_counted(self, sim):
        ds = DistributionSystem(sim)
        medium = Medium(sim, LogDistance(2.4e9))
        ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), ds=ds)
        from repro.mac.addresses import MacAddress
        ds.forward(ap, ap.address, MacAddress(0x999), b"nowhere")
        sim.run(until=0.1)
        assert ds.counters.get("undeliverable") == 1

    def test_location_table_tracks_roams(self, sim):
        medium, ess, (ap0, ap1) = two_ap_ess(sim)
        from repro.mac.addresses import MacAddress
        phantom = MacAddress(0x42)
        ess.ds.station_moved(phantom, ap0)
        assert ess.locate(phantom) is ap0
        ess.ds.station_moved(phantom, ap1)
        assert ess.locate(phantom) is ap1
        assert ess.ds.counters.get("roams") == 1
        ess.ds.station_left(phantom, ap1)
        assert ess.locate(phantom) is None


class TestEss:
    def test_mismatched_ssid_rejected(self, sim):
        medium = Medium(sim, LogDistance(2.4e9))
        ess = ExtendedServiceSet(sim, "the-ess")
        rogue = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0),
                            ssid="other")
        with pytest.raises(ConfigurationError):
            ess.add_ap(rogue)

    def test_ap_cannot_join_two_dses(self, sim):
        medium = Medium(sim, LogDistance(2.4e9))
        first = ExtendedServiceSet(sim, "net")
        second = ExtendedServiceSet(sim, "net")
        ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), ssid="net")
        first.add_ap(ap)
        with pytest.raises(ConfigurationError):
            second.add_ap(ap)


class TestIbssBssid:
    def test_generated_bssid_is_local_unicast(self, sim):
        rng = sim.rng.stream("test-ibss")
        bssid = generate_ibss_bssid(rng)
        assert bssid.is_locally_administered
        assert not bssid.is_multicast

    def test_ibss_membership_rules(self, sim):
        medium = Medium(sim, LogDistance(2.4e9))
        ibss = IndependentBss.start(sim)
        infra_sta = Station(sim, medium, DOT11G, Position(0, 0, 0))
        with pytest.raises(ConfigurationError):
            ibss.join(infra_sta)
