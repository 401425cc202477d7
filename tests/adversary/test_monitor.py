"""Monitor-mode capture: promiscuity, passivity, audit feed, determinism."""

from repro.core import Position, Simulator
from repro.mac.addresses import reset_allocator
from repro.adversary.monitor import CaptureLog, MonitorRadio
from repro.net.ap import AccessPoint
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G
from repro.phy.transceiver import RadioState
from repro.security.wep import FmsAttack, WepCipher, is_weak_iv
from repro.scenarios import associate_all


def build_bss(sim, station_count=2):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid="testnet")
    ap.start_beaconing()
    stations = []
    for index in range(station_count):
        station = Station(sim, medium, DOT11G,
                          Position(10.0 + index, 0, 0), name=f"sta{index}")
        station.associate("testnet")
        stations.append(station)
    associate_all(sim, stations)
    return medium, ap, stations


class TestPromiscuousCapture:
    def test_captures_third_party_traffic_of_every_type(self, sim):
        medium, ap, stations = build_bss(sim)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0))
        for _ in range(10):
            stations[0].send(stations[1].address, b"payload")
        sim.run(until=sim.now + 1.0)
        log = monitor.log
        assert log.counters.get("data") > 0        # none addressed to it
        assert log.counters.get("management") > 0  # beacons
        assert log.counters.get("control") > 0     # ACKs
        assert all(record.addr1 != monitor.name for record in log)

    def test_monitor_never_transmits(self, sim):
        medium, ap, stations = build_bss(sim)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0))
        states = []
        monitor.radio.on_state_change = states.append
        stations[0].send(ap.address, b"payload")
        sim.run(until=sim.now + 1.0)
        assert RadioState.TX.value not in states
        assert len(monitor.log) > 0

    def test_corrupt_capture_is_opt_in(self, sim):
        medium, ap, stations = build_bss(sim)
        quiet = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0))
        noisy = MonitorRadio(sim, medium, DOT11G, Position(6, 5, 0),
                             name="monitor2", capture_corrupt=True)
        sim.run(until=sim.now + 2.0)
        assert quiet.log.counters.get("corrupt") == 0
        assert all(record.ok for record in quiet.log)
        # Bad-FCS rows, if any, are flagged and counted consistently.
        assert noisy.log.counters.get("corrupt") == \
            sum(1 for record in noisy.log if not record.ok)

    def test_jammed_frames_appear_as_bad_fcs_rows(self, sim):
        # Regression: with PHY capture enabled the monitor's radio would
        # abandon a locked frame the instant a stronger jam burst
        # arrived — never upcalling it, so exactly the frames a jammer
        # stomps vanished from the log.  The default capture-disabled
        # monitor radio rides the lock out and logs ok=False instead.
        from repro.adversary.emitters import EnergySource
        from repro.phy.channel import Medium as RawMedium
        from repro.phy.propagation import FixedLoss
        from repro.phy.standards import DOT11B
        from repro.phy.transceiver import Radio
        medium = RawMedium(sim, FixedLoss(50.0))
        sender = Radio("s", medium, DOT11B, Position(0, 0, 0))
        monitor = MonitorRadio(sim, medium, DOT11B, Position(1, 0, 0),
                               capture_corrupt=True)
        jammer = EnergySource("j", medium, Position(2, 0, 0),
                              power_dbm=40.0)  # way past capture ratio
        from repro.mac.frames import make_data
        from repro.mac.addresses import allocate_address
        frame = make_data(allocate_address(), allocate_address(),
                          allocate_address(), bytes(200), sequence=0)
        mode = DOT11B.modes[0]
        airtime = DOT11B.frame_airtime(frame.wire_size_bits(), mode)
        sender.transmit(frame, frame.wire_size_bits(), mode)
        sim.schedule_at(airtime * 0.25, lambda: jammer.emit(airtime))
        sim.run(until=0.1)
        assert len(monitor.log) == 1
        assert not monitor.log.records[0].ok

    def test_capacity_cap_counts_drops(self, sim):
        medium, ap, stations = build_bss(sim)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0),
                               log=CaptureLog(capacity=5))
        sim.run(until=sim.now + 2.0)
        assert len(monitor.log) == 5
        assert monitor.log.dropped > 0


class TestAuditFeed:
    def test_weak_iv_samples_feed_fms(self, sim):
        # Captured WEP bodies -> WeakIvSample stream -> FmsAttack, the
        # honeypot-observation -> audit pipeline end to end.
        medium, ap, stations = build_bss(sim)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0))
        cipher = WepCipher(b"\x01\x02\x03\x04\x05")
        # Drive the IV counter into a weak-IV run (A+3, 255, X).
        cipher._iv_counter = iter(range(0x03FF00, 0x03FF00 + 64))
        for _ in range(32):
            stations[0].send(stations[1].address,
                             cipher.encrypt(b"\xAA\xAA\x03payload"),
                             protected=True)
        sim.run(until=sim.now + 2.0)
        samples = monitor.log.weak_iv_samples()
        assert samples, "no protected frames captured"
        assert all(is_weak_iv(sample.iv, 0) for sample in samples)
        attack = FmsAttack(key_len=5)
        observed = sum(attack.observe(sample) for sample in samples)
        assert observed == len(samples)

    def test_protected_bodies_requires_kept_bodies(self, sim):
        medium, ap, stations = build_bss(sim)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0),
                               log=CaptureLog(keep_bodies=False))
        stations[0].send(stations[1].address, b"\xAA" * 16, protected=True)
        sim.run(until=sim.now + 1.0)
        assert monitor.log.protected_bodies() == []
        assert monitor.log.counters.get("protected") > 0


class TestSeededDeterminism:
    """The CI monitor-capture determinism step byte-compares this."""

    @staticmethod
    def _capture_once(seed):
        reset_allocator()
        sim = Simulator(seed=seed)
        medium, ap, stations = build_bss(sim, station_count=3)
        monitor = MonitorRadio(sim, medium, DOT11G, Position(5, 5, 0),
                               capture_corrupt=True)
        for index, station in enumerate(stations):
            for _ in range(4):
                station.send(ap.address, bytes([index]) * 64)
        sim.run(until=sim.now + 1.0)
        return monitor.log.to_jsonl()

    def test_same_seed_byte_identical_capture(self):
        first = self._capture_once(seed=2025)
        second = self._capture_once(seed=2025)
        assert len(first.splitlines()) > 10
        assert first == second  # byte-for-byte, repr-exact floats

    def test_different_seed_changes_the_capture(self):
        assert self._capture_once(seed=2025) != self._capture_once(seed=2026)
