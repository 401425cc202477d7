"""Tests for traffic generators."""

import pytest

from repro.core.errors import ConfigurationError
from repro.traffic.generators import (
    CbrSource,
    HEADER_SIZE,
    decode_packet,
    encode_packet,
)


class TestPacketCodec:
    def test_round_trip(self):
        packet = encode_packet(flow_id=7, sequence=42, timestamp=1.5,
                               size_bytes=100)
        assert len(packet) == 100
        assert decode_packet(packet) == (7, 42, 1.5)

    def test_foreign_bytes_rejected(self):
        assert decode_packet(b"not a measurement packet" * 2) is None
        assert decode_packet(b"") is None

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            encode_packet(1, 0, 0.0, HEADER_SIZE - 1)


class TestCbr:
    def test_packet_count_over_interval(self, sim):
        sent = []
        CbrSource(sim, lambda p: (sent.append(p), True)[1],
                  packet_bytes=100, interval=0.1, start=0.0)
        sim.run(until=1.05)
        assert len(sent) == 11  # t = 0.0, 0.1, ..., 1.0

    def test_at_rate_constructor(self, sim):
        source = CbrSource.at_rate(sim, lambda p: True, packet_bytes=125,
                                   rate_bps=10_000)
        # 125 bytes = 1000 bits at 10 kb/s -> one packet per 100 ms.
        assert source.interval == pytest.approx(0.1)

    def test_stop_after_limit(self, sim):
        source = CbrSource(sim, lambda p: True, packet_bytes=100,
                           interval=0.01, stop_after=5)
        sim.run(until=2.0)
        assert source.generated == 5

    def test_stop_halts(self, sim):
        source = CbrSource(sim, lambda p: True, packet_bytes=100,
                           interval=0.01)
        sim.run(until=0.1)
        source.stop()
        generated = source.generated
        sim.run(until=1.0)
        assert source.generated == generated

    def test_rejections_counted(self, sim):
        source = CbrSource(sim, lambda p: False, packet_bytes=100,
                           interval=0.1)
        sim.run(until=1.0)
        assert source.rejected == source.generated > 0

    def test_sequences_increase(self, sim):
        sequences = []
        CbrSource(sim, lambda p: (sequences.append(decode_packet(p)[1]),
                                  True)[1],
                  packet_bytes=100, interval=0.1)
        sim.run(until=1.0)
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    @pytest.mark.parametrize("build", [
        lambda sim: CbrSource(sim, lambda p: True, 100, interval=0.0),
        lambda sim: CbrSource(sim, lambda p: True, 100, interval=-0.1),
        lambda sim: CbrSource(sim, lambda p: True, HEADER_SIZE - 1, 0.1),
        lambda sim: CbrSource.at_rate(sim, lambda p: True, 100,
                                      rate_bps=0.0),
    ], ids=["zero interval", "negative interval", "packet under the header",
            "zero rate"])
    def test_validation(self, sim, build):
        with pytest.raises(ConfigurationError):
            build(sim)

    def test_start_delays_the_first_packet(self, sim):
        times = []
        source = CbrSource(sim, lambda p: (times.append(decode_packet(p)[2]),
                                           True)[1],
                           packet_bytes=100, interval=0.1, start=0.25)
        sim.run(until=0.5)
        assert times == pytest.approx([0.25, 0.35, 0.45])
        assert source.offered_bytes == 300

    def test_flow_ids_unique_across_sources(self, sim):
        a = CbrSource(sim, lambda p: True, 100, 0.1)
        b = CbrSource(sim, lambda p: True, 100, 0.1)
        assert a.flow_id != b.flow_id
