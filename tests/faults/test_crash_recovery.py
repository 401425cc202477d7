"""Crash/restart fault injection and the graceful-degradation paths."""

import pytest

from repro import scenarios
from repro.core import Simulator
from repro.core.errors import ConfigurationError
from repro.faults import ChaosMonkey, FaultLog, FaultSchedule
from repro.mac.addresses import reset_allocator
from repro.net.station import StationState
from repro.phy.transceiver import RadioState
from repro.routing import DsdvRouting
from repro.traffic.sink import TrafficSink


def _bss(sim, stations=2):
    return scenarios.build_infrastructure_bss(sim, station_count=stations)


class TestStationCrash:
    def test_crash_drops_association_and_powers_off(self, sim):
        bss = _bss(sim)
        station = bss.stations[0]
        assert station.associated
        station.crash()
        assert not station.associated
        assert station.state is StationState.IDLE
        assert station.radio.state is RadioState.SLEEP
        assert station.serving_ap is None
        assert len(station.mac.queue) == 0
        assert station.sta_counters.get("crashes") == 1

    def test_crash_fires_disassociation_hooks(self, sim):
        bss = _bss(sim)
        station = bss.stations[0]
        fired = []
        station.on_disassociated(lambda: fired.append(sim.now))
        station.crash()
        assert fired == [sim.now]

    def test_restart_reassociates(self, sim):
        bss = _bss(sim)
        station = bss.stations[0]
        station.crash()
        sim.run(until=sim.now + 0.2)
        station.restart()
        sim.run(until=sim.now + 2.0)
        assert station.associated
        assert station.sta_counters.get("restarts") == 1

    def test_crash_is_seed_deterministic(self):
        def run():
            reset_allocator()
            sim = Simulator(seed=9)
            bss = _bss(sim)
            station = bss.stations[0]
            sim.schedule_at(sim.now + 0.1, station.crash)
            sim.schedule_at(sim.now + 0.4, station.restart)
            sim.run(until=sim.now + 3.0)
            return (sim.events_executed,
                    dict(station.sta_counters.as_dict()))
        assert run() == run()


class TestScanResilience:
    def test_scan_against_dead_ap_does_not_hang(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 associate=False)
        bss.ap.crash()
        station = bss.stations[0]
        station.associate(bss.ap.ssid)
        sim.run(until=10.0)
        # The station retries with backoff forever but the run advances
        # to the horizon: no livelock, no exception.
        assert sim.now == 10.0
        assert not station.associated
        assert station.sta_counters.get("scan_empty") > 1

    def test_rescan_backoff_spaces_out_attempts(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 associate=False)
        bss.ap.crash()
        station = bss.stations[0]
        station.associate(bss.ap.ssid)
        sim.run(until=2.0)
        early = station.sta_counters.get("scan_empty")
        sim.run(until=20.0)
        late = station.sta_counters.get("scan_empty")
        # Exponential backoff (capped at RESCAN_CAP): the tail interval
        # is far longer than the first, so 9x the time gives far fewer
        # than 9x the scans.
        assert late - early < early * 9
        assert station.sta_counters.get("scan_empty") > 2

    def test_max_scan_failures_abandons(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 associate=False)
        bss.ap.crash()
        station = bss.stations[0]
        station.max_scan_failures = 3
        station.associate(bss.ap.ssid)
        sim.run(until=30.0)
        assert station.state is StationState.IDLE
        assert station.sta_counters.get("scan_empty") == 3
        assert station.sta_counters.get("scan_abandoned") == 1

    def test_recovery_after_ap_restart(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=1,
                                                 associate=False)
        bss.ap.crash()
        station = bss.stations[0]
        station.associate(bss.ap.ssid)
        sim.run(until=1.0)
        assert not station.associated
        bss.ap.restart()
        sim.run(until=8.0)
        assert station.associated


class TestApCrash:
    def test_crash_clears_associations_and_stops_beacons(self, sim):
        bss = _bss(sim, stations=3)
        bss.ap.crash()
        assert bss.ap.station_count == 0
        assert bss.ap.radio.state is RadioState.SLEEP
        assert bss.ap.ap_counters.get("crashes") == 1

    def test_stations_reassociate_after_restart(self, sim):
        bss = _bss(sim, stations=3)
        sink = TrafficSink(sim)
        bss.ap.on_receive(sink)
        crash_at = sim.now + 0.2
        sim.schedule_at(crash_at, bss.ap.crash)
        sim.schedule_at(crash_at + 0.3, bss.ap.restart)
        # Stations keep offering uplink; the AP's class-3 deauth
        # answers teach them to rescan, and they rejoin post-restart.
        for station in bss.stations:
            def _uplink(payload, _s=station):
                if not _s.associated:
                    return False
                return _s.send(bss.ap.address, payload)
            from repro.traffic.generators import CbrSource
            CbrSource(sim, _uplink, packet_bytes=100, interval=0.05)
        sim.run(until=crash_at + 4.0)
        assert all(station.associated for station in bss.stations)
        assert bss.ap.ap_counters.get("unassociated_data") > 0

    def test_reap_config_survives_crash(self, sim):
        bss = _bss(sim)
        bss.ap.start_reaping(idle_timeout=0.5)
        bss.ap.crash()
        assert bss.ap._reap_task is None
        bss.ap.restart()
        assert bss.ap._reap_task is not None


class TestStaleStationReaping:
    def test_crashed_station_is_reaped(self, sim):
        bss = _bss(sim, stations=1)
        bss.ap.start_reaping(idle_timeout=0.3, interval=0.1)
        victim = bss.stations[0]
        victim.crash()
        assert victim.address in bss.ap.associations
        sim.run(until=sim.now + 1.0)
        assert victim.address not in bss.ap.associations
        assert bss.ap.ap_counters.get("removed_stale") == 1

    def test_live_station_is_not_reaped(self, sim):
        bss = _bss(sim, stations=1)
        station = bss.stations[0]
        bss.ap.start_reaping(idle_timeout=0.5, interval=0.1)
        from repro.traffic.generators import CbrSource
        CbrSource(sim, lambda p: station.send(bss.ap.address, p),
                  packet_bytes=100, interval=0.1)
        sim.run(until=sim.now + 2.0)
        assert station.address in bss.ap.associations
        assert bss.ap.ap_counters.get("removed_stale") == 0

    def test_stop_reaping(self, sim):
        bss = _bss(sim, stations=1)
        bss.ap.start_reaping(idle_timeout=0.1, interval=0.05)
        bss.ap.stop_reaping()
        bss.stations[0].crash()
        sim.run(until=sim.now + 1.0)
        assert bss.stations[0].address in bss.ap.associations


class TestDsdvRestart:
    def _grid(self, sim):
        mesh = scenarios.build_mesh_network(
            sim, scenarios.chain_topology(4, 30.0), DsdvRouting,
            range_m=40.0)
        mesh.start_routing()
        return mesh

    def test_restart_clears_table_and_rejoins(self, sim):
        mesh = self._grid(sim)
        sim.run(until=1.0)
        relay = mesh.nodes[1]
        assert relay.protocol.routes()
        sequence_before = relay.protocol._sequence
        relay.crash()
        relay.restart()
        # The table was RAM: the reboot comes up empty and must relearn.
        assert relay.protocol.routes() == {}
        # Fresh-but-higher even sequence: DSDV's stable-storage rule.
        assert relay.protocol._sequence == sequence_before + 2
        assert relay.protocol._sequence % 2 == 0
        sim.run(until=3.0)
        assert relay.protocol.next_hop(mesh.nodes[3].address) is not None

    def test_traffic_resumes_after_relay_crash(self, sim):
        mesh = self._grid(sim)
        sink = TrafficSink(sim)
        mesh.nodes[3].on_receive(sink)
        from repro.traffic.generators import CbrSource
        source = CbrSource(sim, mesh.nodes[0].sender(mesh.nodes[3].address),
                           packet_bytes=100, interval=0.05, start=0.5)
        relay = mesh.nodes[1]
        sim.schedule_at(1.0, relay.crash)
        sim.schedule_at(1.5, relay.restart)
        sim.run(until=1.0)
        before = sink.total_received
        assert before > 0
        sim.run(until=5.0)
        # The chain has no alternate path: delivery must resume through
        # the rebooted relay.
        assert sink.total_received > before


class TestFaultSchedule:
    def test_entries_fire_in_order_and_log(self, sim):
        fired = []
        log = FaultLog()
        schedule = FaultSchedule(sim, log=log)
        schedule.at(0.2, lambda: fired.append("b"), "custom", "b")
        schedule.at(0.1, lambda: fired.append("a"), "custom", "a")
        schedule.at(0.2, lambda: fired.append("c"), "custom", "c")
        schedule.install()
        sim.run(until=1.0)
        assert fired == ["a", "b", "c"]   # time order; ties by insertion
        assert [r.target for r in log] == ["a", "b", "c"]
        assert schedule.counters.get("custom") == 3

    def test_crash_verb_schedules_restart(self, sim):
        bss = _bss(sim)
        station = bss.stations[0]
        crash_at = sim.now + 0.1
        FaultSchedule(sim).crash(station, at=crash_at,
                                 down_for=0.2).install()
        sim.run(until=crash_at + 0.05)
        assert not station.associated
        sim.run(until=crash_at + 3.0)
        assert station.associated

    def test_double_install_rejected(self, sim):
        schedule = FaultSchedule(sim)
        schedule.install()
        with pytest.raises(ConfigurationError):
            schedule.install()

    def test_trace_is_byte_deterministic(self):
        def run():
            reset_allocator()
            sim = Simulator(seed=4)
            bss = _bss(sim)
            log = FaultLog()
            schedule = FaultSchedule(sim, log=log)
            schedule.crash(bss.stations[0], at=0.3, down_for=0.4)
            schedule.crash(bss.ap, at=0.8, down_for=0.2)
            schedule.install()
            sim.run(until=3.0)
            return log.to_jsonl()
        trace = run()
        assert trace == run()
        assert len(trace.splitlines()) == 4


class TestChaosMonkey:
    def test_strikes_and_restores_deterministically(self):
        def run():
            reset_allocator()
            sim = Simulator(seed=6)
            bss = _bss(sim, stations=3)
            log = FaultLog()
            monkey = ChaosMonkey(sim, targets=bss.stations,
                                 mean_interval=0.1, mean_downtime=0.15,
                                 log=log)
            monkey.start()
            sim.schedule_at(sim.now + 1.0, monkey.stop)
            sim.schedule_at(sim.now + 1.0, monkey.restore_all)
            sim.run(until=sim.now + 3.0)
            return log.to_jsonl(), dict(monkey.counters.as_dict())
        first = run()
        assert first == run()
        trace, counters = first
        assert counters["strikes"] >= 1
        assert counters["strikes"] == counters["restores"]

    def test_restore_all_brings_everything_back(self, sim):
        bss = _bss(sim, stations=3)
        monkey = ChaosMonkey(sim, targets=bss.stations,
                             mean_interval=0.02, mean_downtime=50.0)
        monkey.start()
        sim.run(until=sim.now + 1.0)
        assert monkey._down
        monkey.stop()
        monkey.restore_all()
        assert not monkey._down
        sim.run(until=sim.now + 5.0)
        assert all(station.associated for station in bss.stations)

    def test_max_faults_bounds_the_storm(self, sim):
        bss = _bss(sim, stations=2)
        monkey = ChaosMonkey(sim, targets=bss.stations,
                             mean_interval=0.01, mean_downtime=0.01,
                             max_faults=3)
        monkey.start()
        sim.run(until=sim.now + 5.0)
        assert monkey.counters.get("strikes") == 3

    def test_needs_targets(self, sim):
        with pytest.raises(ConfigurationError):
            ChaosMonkey(sim, targets=[])

    def test_chaos_stream_does_not_perturb_traffic(self):
        """Adding a monkey that never strikes must leave the rest of
        the simulation bit-identical: its randomness is stream-local."""
        def run(with_monkey):
            reset_allocator()
            from repro.traffic.generators import _SourceBase
            _SourceBase._next_flow_id = 1
            sim = Simulator(seed=12)
            bss = _bss(sim, stations=2)
            if with_monkey:
                monkey = ChaosMonkey(sim, targets=bss.stations,
                                     mean_interval=1e9)
                monkey.start()
            from repro.traffic.generators import CbrSource
            sink = TrafficSink(sim)
            bss.ap.on_receive(sink)
            CbrSource(sim,
                      lambda p: bss.stations[0].send(bss.ap.address, p),
                      packet_bytes=100, interval=0.02)
            sim.run(until=sim.now + 2.0)
            return sink.total_received
        assert run(False) == run(True)
