"""End-to-end integration: traffic over a full infrastructure BSS."""

from repro import scenarios
from repro.core import Simulator
from repro.core.topology import circle_layout
from repro.net.bss import IndependentBss
from repro.net.station import Station
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11B
from repro.traffic.generators import CbrSource
from repro.traffic.sink import TrafficSink


def adhoc_peers(sim, count, radius_m, standard=DOT11B):
    """Peer stations on a circle sharing one IBSS."""
    medium = Medium(sim, LogDistance(standard.band_hz, exponent=3.0))
    ibss = IndependentBss.start(sim)
    stations = []
    for index, position in enumerate(circle_layout(count, radius_m)):
        station = Station(sim, medium, standard, position,
                          name=f"peer{index}", adhoc=True,
                          ibss_bssid=ibss.bssid)
        ibss.join(station)
        stations.append(station)
    return stations


class TestCbrOverBss:
    def test_cbr_flow_station_to_station(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 radius_m=15.0)
        src, dst = bss.stations
        sink = TrafficSink(sim)
        dst.on_receive(sink)
        start = sim.now
        source = CbrSource(sim, lambda p: src.send(dst.address, p),
                           packet_bytes=500, interval=0.01,
                           stop_after=100)
        sim.run(until=start + 5.0)
        flow = sink.flow(source.flow_id)
        assert flow is not None
        assert flow.received == 100
        assert flow.lost == 0
        # Relayed through the AP: delay is positive but small.
        assert 0.0 < flow.delay.mean < 0.05

    def test_offered_load_below_capacity_is_carried(self, sim):
        bss = scenarios.build_infrastructure_bss(sim, station_count=3,
                                                 radius_m=10.0)
        sinks = []
        sources = []
        start = sim.now
        horizon = 4.0
        for sender, receiver in zip(bss.stations, bss.stations[1:] +
                                    bss.stations[:1]):
            sink = TrafficSink(sim)
            receiver.on_receive(sink)
            sinks.append(sink)
            sources.append(CbrSource(
                sim, lambda p, s=sender, r=receiver: s.send(r.address, p),
                packet_bytes=400, interval=0.02))
        sim.run(until=start + horizon)
        delivered = sum(sink.total_received for sink in sinks)
        offered = sum(source.generated for source in sources)
        assert delivered / offered > 0.95

    def test_delay_grows_with_congestion(self, sim):
        """Saturating one sender inflates everyone's queueing delay."""
        bss = scenarios.build_infrastructure_bss(sim, station_count=2,
                                                 radius_m=10.0)
        src, dst = bss.stations
        sink = TrafficSink(sim)
        dst.on_receive(sink)
        start = sim.now
        light = CbrSource(sim, lambda p: src.send(dst.address, p),
                          packet_bytes=500, interval=0.05)
        sim.run(until=start + 2.0)
        light_delay = sink.flow(light.flow_id).delay.mean
        light.stop()
        heavy = CbrSource(sim, lambda p: src.send(dst.address, p),
                          packet_bytes=1200, interval=0.002)
        sim.run(until=sim.now + 2.0)
        heavy_delay = sink.flow(heavy.flow_id).delay.mean
        assert heavy_delay > light_delay


class TestAdhocTraffic:
    def test_peer_flows_without_infrastructure(self, sim):
        stations = adhoc_peers(sim, 4, radius_m=10.0)
        a, b = stations[0], stations[2]
        sink = TrafficSink(sim)
        b.on_receive(sink)
        CbrSource(sim, lambda p: a.send(b.address, p),
                  packet_bytes=300, interval=0.01, stop_after=50)
        sim.run(until=3.0)
        assert sink.total_received == 50

    def test_adhoc_delay_below_infrastructure(self, sim):
        """Ad-hoc is one hop; infrastructure relays through the AP."""
        from repro.phy.standards import DOT11G
        a, b = adhoc_peers(sim, 2, radius_m=10.0, standard=DOT11G)
        adhoc_sink = TrafficSink(sim)
        b.on_receive(adhoc_sink)
        src = CbrSource(sim, lambda p: a.send(b.address, p),
                        packet_bytes=300, interval=0.02, stop_after=40)
        sim.run(until=3.0)
        adhoc_delay = adhoc_sink.flow(src.flow_id).delay.mean

        sim2 = Simulator(seed=11)
        bss = scenarios.build_infrastructure_bss(sim2, station_count=2,
                                                 radius_m=10.0)
        sa, sb = bss.stations
        infra_sink = TrafficSink(sim2)
        sb.on_receive(infra_sink)
        src2 = CbrSource(sim2, lambda p: sa.send(sb.address, p),
                         packet_bytes=300, interval=0.02, stop_after=40)
        sim2.run(until=sim2.now + 3.0)
        infra_delay = infra_sink.flow(src2.flow_id).delay.mean
        assert adhoc_delay < infra_delay
