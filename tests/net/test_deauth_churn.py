"""Deauth-flood churn: AP-driven kick/re-associate cycles under load.

Extends the PR-3 `associate_all` churn fix to the adversarial regime
this PR opens: repeated :meth:`AccessPoint.deauthenticate` against
stations that are simultaneously saturating the uplink must leave the
AP's association table, the stations' state machines and the
`associate_all` completion logic consistent — no stuck station, no
premature timeout, no leaked association records.

One asynchrony matters throughout: ``deauthenticate`` drops the AP-side
record immediately but the station only learns when the DEAUTH frame
*arrives*, so station-side state lags by one frame exchange.  The
helpers below wait on the disassociation hook rather than assuming the
two views agree at the instant of the kick.
"""

from repro.core import Position
from repro.core.engine import PeriodicTask
from repro.net.ap import AccessPoint
from repro.net.station import Station, StationState
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11G
from repro.scenarios import associate_all


def build_bss(sim, station_count=3):
    medium = Medium(sim, LogDistance(2.4e9, exponent=3.0))
    ap = AccessPoint(sim, medium, DOT11G, Position(0, 0, 0), name="ap",
                     ssid="churnnet")
    ap.start_beaconing()
    stations = []
    for index in range(station_count):
        station = Station(sim, medium, DOT11G,
                          Position(8.0 + index, 0, 0), name=f"sta{index}")
        station.associate("churnnet")
        stations.append(station)
    associate_all(sim, stations)
    return medium, ap, stations


def saturate(stations, ap, payload=bytes(600), depth=4):
    """Keep every station's queue non-empty via tx-complete refills."""
    for station in stations:
        def refill(msdu, ok, s=station):
            if s.associated:
                s.send(ap.address, payload)
        station.on_tx_complete(refill)
        for _ in range(depth):
            station.send(ap.address, payload)


def kick_and_wait(sim, ap, station, timeout=2.0):
    """Deauthenticate and run until the station has processed the kick.

    The DEAUTH is a real frame: it contends, flies, and only then tears
    the station's link state down.
    """
    ap.deauthenticate(station.address)
    unsubscribe = station.on_disassociated(sim.stop)
    try:
        sim.run(until=sim.now + timeout)
    finally:
        unsubscribe()
    assert not station.associated, "DEAUTH never reached the station"


class TestDeauthChurnUnderSaturation:
    def test_repeated_kicks_recover_every_time(self, sim):
        medium, ap, stations = build_bss(sim)
        saturate(stations, ap)
        kicked = []

        def kick_round_robin():
            target = stations[len(kicked) % len(stations)]
            # Kick only when both views agree the station is on — a
            # target mid-recovery would make the kick a no-op AP-side.
            if target.associated and ap.is_associated(target.address):
                ap.deauthenticate(target.address)
                kicked.append(target.name)

        churn = PeriodicTask(sim, 0.25, kick_round_robin)
        sim.run(until=sim.now + 4.0)
        churn.cancel()
        # Let any in-flight DEAUTH land, then wait out the recovery:
        # associate_all must ride through the tail of the churn.
        sim.run(until=sim.now + 1.0)
        associate_all(sim, stations, timeout=10.0)
        assert len(kicked) >= 10
        for station in stations:
            assert station.state == StationState.ASSOCIATED
            assert station.sta_counters.get("link_lost_ap_kicked_us") >= 2
            assert station.sta_counters.get("associations") >= 3
            assert ap.is_associated(station.address)
        # The AP's table holds exactly the live stations — churn must
        # not leak stale records (each kick removed exactly one).
        assert ap.station_count == len(stations)
        assert ap.ap_counters.get("removed_deauthenticated") == len(kicked)

    def test_associate_all_survives_mid_wait_kick(self, sim):
        medium, ap, stations = build_bss(sim)
        saturate(stations, ap)
        # Knock one station down so associate_all genuinely waits...
        kick_and_wait(sim, ap, stations[0])
        # ...and kick a *currently associated* one mid-wait: the PR-3
        # completion semantics judge current state, so the wait stays
        # alive until both are back instead of raising with timeout
        # budget left.
        sim.schedule(0.1, lambda: ap.deauthenticate(stations[1].address))
        associate_all(sim, stations, timeout=8.0)
        assert all(station.associated for station in stations)
        for index in (0, 1):
            assert stations[index].sta_counters.get(
                "link_lost_ap_kicked_us") == 1
            assert stations[index].sta_counters.get("associations") == 2

    def test_sequence_state_survives_churn(self, sim):
        # Data keeps flowing after each re-association: the dedup /
        # sequence machinery must not eat post-churn traffic, and the
        # AP must never see post-recovery data as class-3 frames.
        medium, ap, stations = build_bss(sim, station_count=1)
        station = stations[0]
        received = []
        ap.on_receive(lambda source, payload, meta: received.append(payload))
        for round_index in range(3):
            station.send(ap.address, bytes([round_index]) * 32)
            sim.run(until=sim.now + 0.3)
            kick_and_wait(sim, ap, station)
            associate_all(sim, [station], timeout=5.0)
            assert ap.is_associated(station.address)
        station.send(ap.address, b"final" * 8)
        sim.run(until=sim.now + 0.3)
        assert len(received) == 4
        assert ap.ap_counters.get("unassociated_data", ) == 0
        assert station.sta_counters.get("associations") == 4
