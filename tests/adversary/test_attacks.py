"""MAC-layer attack nodes: injection, deauth floods, evil twins, NAV abuse."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError
from repro.mac.frames import make_cts
from repro.adversary.attacks import (
    CtsNavAttacker,
    DeauthFlooder,
    FrameInjector,
    MAX_DURATION_US,
    RogueAp,
)
from repro.net.ap import AccessPoint
from repro.net.roaming import RoamingPolicy
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G
from repro.scenarios import associate_all
from repro.traffic.generators import CbrSource
from repro.traffic.sink import TrafficSink


def build_bss(sim, station_count=2, **station_kwargs):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid="testnet")
    ap.start_beaconing()
    stations = []
    for index in range(station_count):
        station = Station(sim, medium, DOT11G,
                          Position(10.0 + index, 0, 0), name=f"sta{index}",
                          **station_kwargs)
        station.associate("testnet")
        stations.append(station)
    associate_all(sim, stations)
    return medium, ap, stations


class TestFrameInjector:
    def test_injects_spoofed_frames_on_the_air(self, sim):
        medium, ap, stations = build_bss(sim)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        injector.inject(make_cts(stations[0].address, 0))
        sim.run(until=sim.now + 0.5)
        assert injector.counters.get("injected") == 1
        assert injector.pending == 0

    def test_queue_is_bounded_drop_tail(self, sim):
        medium, _ap, stations = build_bss(sim)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0),
                                 queue_limit=3)
        accepted = [injector.inject(make_cts(stations[0].address, 0))
                    for _ in range(6)]
        # One on the air immediately, three queued, the rest dropped.
        assert accepted == [True, True, True, True, False, False]
        assert injector.counters.get("queue_drops") == 2
        sim.run(until=sim.now + 0.5)
        assert injector.counters.get("injected") == 4

    def test_queue_drains_in_order_across_tx(self, sim):
        medium, _ap, stations = build_bss(sim)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        for _ in range(5):
            injector.inject(make_cts(stations[0].address, 0))
        assert injector.pending >= 4  # half duplex: one on the air max
        sim.run(until=sim.now + 0.5)
        assert injector.counters.get("injected") == 5
        assert injector.pending == 0


class TestDeauthFlooder:
    def test_broadcast_flood_kicks_every_station(self, sim):
        medium, ap, stations = build_bss(sim, station_count=3)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        flood = DeauthFlooder(sim, injector, ap.bssid, interval=40e-3)
        flood.start()
        sim.run(until=sim.now + 1.5)
        flood.stop()
        assert flood.counters.get("deauths_spoofed") > 10
        for station in stations:
            # Kicked (at least once) and fought its way back.
            assert station.sta_counters.get("link_lost_ap_kicked_us") >= 1
            assert station.sta_counters.get("associations") >= 2

    def test_ap_side_flood_churns_the_association_table(self, sim):
        medium, ap, stations = build_bss(sim, station_count=2)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        flood = DeauthFlooder(sim, injector, ap.bssid,
                              targets=[s.address for s in stations],
                              interval=50e-3, toward="ap")
        flood.start()
        sim.run(until=sim.now + 1.0)
        assert ap.ap_counters.get("removed_deauthentication") >= 2

    def test_toward_validation(self, sim):
        medium, ap, _ = build_bss(sim, station_count=0)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        with pytest.raises(ConfigurationError):
            DeauthFlooder(sim, injector, ap.bssid, toward="sideways")

    @pytest.mark.parametrize("toward", ["ap", "both"])
    def test_ap_directions_require_targets(self, sim, toward):
        # Regression: without station addresses to spoof, an AP-ward
        # flood would tick forever injecting nothing.
        medium, ap, _ = build_bss(sim, station_count=0)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        with pytest.raises(ConfigurationError):
            DeauthFlooder(sim, injector, ap.bssid, toward=toward)


class TestRogueAp:
    def test_twin_lures_a_roaming_station(self, sim):
        medium, ap, stations = build_bss(
            sim, station_count=1,
            roaming_policy=RoamingPolicy(low_snr_threshold_db=100.0,
                                         hysteresis_db=3.0, min_dwell=0.1))
        station = stations[0]
        # The rogue parks right next to the victim station and clones
        # the SSID with a hotter radio.
        rogue = RogueAp.twin_of(ap, Position(11.0, 1.0, 0),
                                power_advantage_db=20.0)
        rogue.start_beaconing(offset=0.05)
        sim.run(until=sim.now + 5.0)
        assert station.serving_ap == rogue.bssid
        assert station.address in rogue.lured
        assert rogue.ap_counters.get("stations_lured") == 1
        assert rogue.ssid == ap.ssid

    def test_twin_clones_channel_and_ssid(self, sim):
        medium, ap, _ = build_bss(sim, station_count=0)
        rogue = RogueAp.twin_of(ap, Position(1, 1, 0))
        assert rogue.radio.channel_id == ap.radio.channel_id
        assert rogue.ssid == ap.ssid
        assert rogue.radio.tx_power_watts > ap.radio.tx_power_watts


class TestCtsNavAttacker:
    def test_nav_abuse_starves_honest_traffic(self, sim):
        medium, ap, stations = build_bss(sim)
        sink = TrafficSink(sim)
        ap.on_receive(lambda source, payload, meta: sink.consume(payload))
        source = CbrSource(
            sim,
            lambda p: stations[0].associated
            and stations[0].send(ap.address, p),
            packet_bytes=200, interval=5e-3)
        sim.run(until=sim.now + 1.0)
        baseline = sink.total_received
        assert baseline > 100
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        attacker = CtsNavAttacker(sim, injector)
        attacker.start()
        sim.run(until=sim.now + 1.0)
        under_attack = sink.total_received - baseline
        # The NAV reservation train freezes the cell: delivery collapses
        # to a tiny fraction without a single jammed bit.
        assert under_attack < baseline * 0.2
        assert attacker.counters.get("cts_sent") > 10
        # Honest stations deferred on the *virtual* carrier sense.
        assert stations[0].mac.counters.get("nav_updates") > 0

    def test_duration_validation(self, sim):
        medium, _ap, _ = build_bss(sim, station_count=0)
        injector = FrameInjector(sim, medium, DOT11G, Position(5, 0, 0))
        with pytest.raises(ConfigurationError):
            CtsNavAttacker(sim, injector, duration_us=MAX_DURATION_US + 1)
