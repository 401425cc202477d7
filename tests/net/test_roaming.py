"""Tests for roaming policy, beacon tracking, and the full roam."""

import pytest

from repro.core import Position
from repro.mac.addresses import MacAddress
from repro.mobility.models import LinearMobility
from repro.net.roaming import BeaconTracker, RoamingPolicy
from repro.net.station import Station
from repro.scenarios import build_ess

BSSID_A = MacAddress.from_string("02:00:00:00:00:0a")
BSSID_B = MacAddress.from_string("02:00:00:00:00:0b")


class TestBeaconTracker:
    def test_observation_created_and_smoothed(self):
        tracker = BeaconTracker(alpha=0.5)
        tracker.observe(BSSID_A, "net", 1, 0, 100, snr_db=20.0, now=0.0)
        entry = tracker.observe(BSSID_A, "net", 1, 0, 100, snr_db=10.0,
                                now=0.1)
        assert entry.snr_db == pytest.approx(15.0)
        assert entry.beacons == 2

    def test_candidates_sorted_by_snr(self):
        tracker = BeaconTracker()
        tracker.observe(BSSID_A, "net", 1, 0, 100, snr_db=10.0, now=0.0)
        tracker.observe(BSSID_B, "net", 1, 0, 100, snr_db=30.0, now=0.0)
        candidates = tracker.candidates("net")
        assert [c.bssid for c in candidates] == [BSSID_B, BSSID_A]
        assert tracker.best("net").bssid == BSSID_B

    def test_ssid_filtering_and_exclude(self):
        tracker = BeaconTracker()
        tracker.observe(BSSID_A, "net", 1, 0, 100, snr_db=10.0, now=0.0)
        tracker.observe(BSSID_B, "other", 1, 0, 100, snr_db=30.0, now=0.0)
        assert tracker.best("net").bssid == BSSID_A
        assert tracker.candidates("net", exclude=BSSID_A) == []

    def test_forget(self):
        tracker = BeaconTracker()
        tracker.observe(BSSID_A, "net", 1, 0, 100, snr_db=10.0, now=0.0)
        tracker.forget(BSSID_A)
        assert tracker.get(BSSID_A) is None


class TestRoamingPolicy:
    def test_roams_when_weak_and_better_candidate(self):
        policy = RoamingPolicy(low_snr_threshold_db=15.0, hysteresis_db=5.0,
                               min_dwell=1.0)
        assert policy.should_roam(serving_snr_db=10.0,
                                  candidate_snr_db=20.0,
                                  time_since_last_roam=10.0)

    def test_no_roam_when_serving_is_strong(self):
        policy = RoamingPolicy(low_snr_threshold_db=15.0)
        assert not policy.should_roam(20.0, 40.0, 10.0)

    def test_hysteresis_blocks_marginal_candidates(self):
        policy = RoamingPolicy(hysteresis_db=5.0)
        assert not policy.should_roam(10.0, 14.0, 10.0)

    def test_dwell_rate_limits(self):
        policy = RoamingPolicy(min_dwell=5.0)
        assert not policy.should_roam(5.0, 30.0, 1.0)

    def test_disabled_policy_never_roams(self):
        policy = RoamingPolicy(enabled=False)
        assert not policy.should_roam(-10.0, 50.0, 100.0)


class TestFullRoam:
    def test_station_roams_along_the_corridor(self, sim):
        """A station walking from AP0 toward AP1 must hand off and keep
        its connectivity through the DS."""
        scenario = build_ess(sim, ap_count=2, spacing_m=80.0)
        ap0, ap1 = scenario.aps
        sta = Station(sim, scenario.medium, ap0.radio.standard,
                      Position(5, 0, 0), name="walker",
                      roaming_policy=RoamingPolicy(
                          low_snr_threshold_db=28.0, hysteresis_db=3.0,
                          min_dwell=0.5))
        sta.associate("repro-ess")
        sim.run(until=2.0)
        assert sta.serving_ap == ap0.bssid
        # Walk past AP1.
        mobility = LinearMobility(sim, sta, Position(80, 0, 0),
                                  speed_mps=8.0, tick=0.1)
        mobility.start()
        sim.run(until=14.0)
        assert sta.serving_ap == ap1.bssid
        assert sta.sta_counters.get("roams") >= 1
        # The DS location table follows the station.
        assert scenario.ess.locate(sta.address) is ap1
        assert not ap0.is_associated(sta.address)
        assert ap1.is_associated(sta.address)
