"""The saturating source and the delivery counter, as ``Station``
callbacks (``on_tx_complete`` / ``on_receive``)."""

from repro import scenarios
from repro.core import Simulator
from repro.traffic import DeliveryCounter, SaturatingSource


class _RecordingMac:
    def __init__(self):
        self.sent = []

    def send(self, destination, payload):
        self.sent.append((destination, payload))
        return True


def test_source_primes_depth_and_refills_on_every_completion():
    mac = _RecordingMac()
    source = SaturatingSource(mac, "dst", b"x", depth=3)
    assert mac.sent == [("dst", b"x")] * 3
    source(None, True)
    source(None, False)  # a dropped MSDU is replaced too
    source.mac_tx_complete(None, False)
    assert len(mac.sent) == 6


def test_counter_counts_frames_and_bytes_in_both_forms():
    counter = DeliveryCounter()
    counter("src", b"abc", {})
    counter.mac_receive("src", "dst", b"de", {})
    assert (counter.frames, counter.bytes) == (2, 5)


def test_a_station_pair_stays_saturated():
    sim = Simulator(seed=4)
    scenario = scenarios.build_hidden_terminal(sim)
    sender, receiver = scenario.sender_a, scenario.receiver
    counter = DeliveryCounter()
    receiver.on_receive(counter)
    sender.on_tx_complete(SaturatingSource(sender.mac, receiver.address,
                                           bytes(200), depth=2))
    sim.run(until=0.2)
    mac = sender.mac
    assert counter.frames > 2 and counter.bytes == 200 * counter.frames
    assert counter.frames == mac.counters.get("msdu_delivered")
    # Every completion queued one more: two MSDUs in hand at the end.
    assert len(mac.queue) + (mac._current is not None) == 2
