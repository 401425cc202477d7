"""Tests for passive/active scanning and multi-channel discovery."""

from repro.core import Position
from repro.net.ap import AccessPoint
from repro.net.station import Station, StationState
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G


def build_two_channel_world(sim):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap1 = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap1",
                      ssid="net-one", channel_id=1)
    ap6 = AccessPoint(sim, medium, DOT11G, Position(5, 0, 0), name="ap6",
                      ssid="net-six", channel_id=6)
    ap1.start_beaconing()
    ap6.start_beaconing(offset=0.03)
    sta = Station(sim, medium, DOT11G, Position(10, 0, 0), name="sta",
                  channel_id=1)
    return medium, ap1, ap6, sta


class TestMultiChannelScan:
    def test_passive_scan_finds_ap_on_other_channel(self, sim):
        _, ap1, ap6, sta = build_two_channel_world(sim)
        sta.start_scan("net-six", channels=[1, 6], dwell=0.15)
        sim.run(until=3.0)
        assert sta.state == StationState.ASSOCIATED
        assert sta.serving_ap == ap6.bssid
        assert sta.radio.channel_id == 6

    def test_scan_retries_until_network_appears(self, sim):
        medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
        sta = Station(sim, medium, DOT11G, Position(10, 0, 0), name="sta")
        sta.start_scan("late-net", dwell=0.1)
        sim.run(until=1.0)
        assert not sta.associated
        assert sta.sta_counters.get("scan_empty") >= 1
        # The network powers on later; the retrying scan must catch it.
        ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0),
                         ssid="late-net")
        ap.start_beaconing()
        sim.run(until=4.0)
        assert sta.associated

    def test_channel_isolation_prevents_cross_channel_hearing(self, sim):
        _, ap1, ap6, sta = build_two_channel_world(sim)
        sim.run(until=1.0)  # station parked on channel 1
        assert sta.tracker.get(ap1.bssid) is not None
        assert sta.tracker.get(ap6.bssid) is None


class TestActiveScan:
    def test_probe_request_elicits_probe_response(self, sim):
        _, ap1, ap6, sta = build_two_channel_world(sim)
        # Short dwell (well under a beacon interval): only active probing
        # can discover the AP this fast.
        sta.start_scan("net-six", channels=[6], dwell=0.03, active=True)
        sim.run(until=2.0)
        assert sta.sta_counters.get("probe_requests") >= 1
        assert ap6.ap_counters.get("probe_responses") >= 1
        assert sta.associated

    def test_probe_for_foreign_ssid_ignored(self, sim):
        _, ap1, ap6, sta = build_two_channel_world(sim)
        sta.start_scan("no-such-net", channels=[1], dwell=0.03,
                       active=True)
        sim.run(until=0.5)
        assert ap1.ap_counters.get("probe_responses") == 0
