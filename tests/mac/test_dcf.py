"""Behavioural tests for the DCF MAC: the protocol exchanges themselves."""

from repro.core import Position
from repro.mac.addresses import BROADCAST, allocate_address
from repro.mac.dcf import DcfConfig, DcfMac, MacListener
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.error_models import FixedPerErrorModel
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio


class Upper(MacListener):
    """Records everything the MAC hands up."""

    def __init__(self):
        self.received = []
        self.mgmt = []
        self.completions = []

    def mac_receive(self, source, destination, payload, meta):
        self.received.append((source, destination, payload, meta))

    def mac_management(self, frame, snr_db):
        self.mgmt.append(frame)

    def mac_tx_complete(self, msdu, success):
        self.completions.append((msdu, success))


def build_network(sim, count=2, loss_db=50.0, config=None,
                  error_model=None, propagation=None):
    """``count`` MACs all in mutual range on a flat medium."""
    medium = Medium(sim, propagation or FixedLoss(loss_db))
    nodes = []
    for index in range(count):
        radio = Radio(f"r{index}", medium, DOT11B,
                      Position(float(index), 0, 0),
                      error_model=error_model)
        address = allocate_address()
        mac = DcfMac(sim, radio, address, config=config,
                     rate_factory=fixed_rate_factory("DSSS-1"))
        upper = Upper()
        mac.listener = upper
        nodes.append((mac, upper))
    return medium, nodes


class TestBasicExchange:
    def test_unicast_delivery_and_ack(self, sim):
        _, nodes = build_network(sim)
        (tx, tx_up), (rx, rx_up) = nodes
        assert tx.send(rx.address, b"hello")
        sim.run(until=0.5)
        assert [entry[2] for entry in rx_up.received] == [b"hello"]
        assert tx_up.completions[0][1] is True
        assert tx.counters.get("rx_ack") == 1
        assert rx.counters.get("rx_data") == 1

    def test_many_frames_in_order(self, sim):
        _, nodes = build_network(sim)
        (tx, _), (rx, rx_up) = nodes
        for index in range(20):
            tx.send(rx.address, bytes([index]))
        sim.run(until=2.0)
        assert [entry[2][0] for entry in rx_up.received] == list(range(20))

    def test_broadcast_no_ack_no_retry(self, sim):
        _, nodes = build_network(sim, count=3)
        (tx, tx_up) = nodes[0]
        tx.send(BROADCAST, b"to everyone")
        sim.run(until=0.5)
        for _mac, upper in nodes[1:]:
            assert [entry[2] for entry in upper.received] == [b"to everyone"]
        assert tx.counters.get("rx_ack") == 0
        assert tx_up.completions[0][1] is True

    def test_bidirectional_traffic(self, sim):
        _, nodes = build_network(sim)
        (a, a_up), (b, b_up) = nodes
        for _ in range(5):
            a.send(b.address, b"ping")
            b.send(a.address, b"pong")
        sim.run(until=2.0)
        assert len(a_up.received) == 5
        assert len(b_up.received) == 5


class TestRetries:
    def test_loss_triggers_retry_and_eventual_delivery(self, sim):
        _, nodes = build_network(sim,
                                 error_model=FixedPerErrorModel(per=0.4))
        (tx, tx_up), (rx, rx_up) = nodes
        for _ in range(10):
            tx.send(rx.address, b"lossy")
        sim.run(until=5.0)
        delivered = sum(1 for _m, ok in tx_up.completions if ok)
        assert delivered >= 8  # retries recover most frames
        assert tx.counters.get("ack_timeouts") > 0

    def test_retry_bit_set_on_retransmission(self, sim):
        _, nodes = build_network(sim,
                                 error_model=FixedPerErrorModel(per=0.5))
        (tx, _), (rx, _) = nodes
        # Sniff at the receiver MAC level.
        rx_mac_sniff = []
        rx.sniffer = lambda frame, snr: rx_mac_sniff.append(frame)
        for _ in range(10):
            tx.send(rx.address, b"x")
        sim.run(until=5.0)
        assert any(frame.is_data and frame.fc.retry
                   for frame in rx_mac_sniff)

    def test_total_loss_drops_at_retry_limit(self, sim):
        config = DcfConfig(short_retry_limit=3)
        _, nodes = build_network(sim, config=config,
                                 error_model=FixedPerErrorModel(per=1.0))
        (tx, tx_up), (rx, rx_up) = nodes
        tx.send(rx.address, b"doomed")
        sim.run(until=5.0)
        assert tx_up.completions == [(tx_up.completions[0][0], False)]
        assert tx.counters.get("msdu_dropped") == 1
        assert rx_up.received == []

    def test_queue_continues_after_drop(self, sim):
        config = DcfConfig(short_retry_limit=2)
        _, nodes = build_network(sim, config=config,
                                 error_model=FixedPerErrorModel(per=1.0))
        (tx, tx_up), (rx, _) = nodes
        tx.send(rx.address, b"first")
        tx.send(rx.address, b"second")
        sim.run(until=5.0)
        assert len(tx_up.completions) == 2
        assert all(not ok for _m, ok in tx_up.completions)


class TestRtsCts:
    def test_rts_used_above_threshold(self, sim):
        config = DcfConfig(rts_threshold_bytes=100)
        _, nodes = build_network(sim, config=config)
        (tx, tx_up), (rx, rx_up) = nodes
        tx.send(rx.address, bytes(500))
        sim.run(until=0.5)
        assert tx.counters.get("tx_rts") == 1
        assert tx.counters.get("rx_cts") == 1
        assert [len(entry[2]) for entry in rx_up.received] == [500]

    def test_rts_skipped_below_threshold(self, sim):
        config = DcfConfig(rts_threshold_bytes=100)
        _, nodes = build_network(sim, config=config)
        (tx, _), (rx, rx_up) = nodes
        tx.send(rx.address, bytes(20))
        sim.run(until=0.5)
        assert tx.counters.get("tx_rts") == 0
        assert len(rx_up.received) == 1

    def test_rts_never_for_broadcast(self, sim):
        config = DcfConfig(rts_threshold_bytes=10)
        _, nodes = build_network(sim, count=3, config=config)
        (tx, _) = nodes[0]
        tx.send(BROADCAST, bytes(500))
        sim.run(until=0.5)
        assert tx.counters.get("tx_rts") == 0

    def test_third_station_defers_via_nav(self, sim):
        """A bystander overhearing RTS must raise its NAV."""
        config = DcfConfig(rts_threshold_bytes=50)
        _, nodes = build_network(sim, count=3, config=config)
        (tx, _), (rx, _), (bystander, _) = nodes
        tx.send(rx.address, bytes(400))
        sim.run(until=0.5)
        assert bystander.counters.get("nav_updates", ) > 0


class TestFragmentation:
    def test_large_msdu_fragmented_and_reassembled(self, sim):
        config = DcfConfig(fragmentation_threshold_bytes=256)
        _, nodes = build_network(sim, config=config)
        (tx, tx_up), (rx, rx_up) = nodes
        payload = bytes(range(256)) * 3  # 768 bytes -> 3 fragments
        tx.send(rx.address, payload)
        sim.run(until=1.0)
        assert [entry[2] for entry in rx_up.received] == [payload]
        assert tx.counters.get("fragments_sent") == 2  # continuations
        assert tx_up.completions[0][1] is True

    def test_fragment_burst_is_acked_per_fragment(self, sim):
        config = DcfConfig(fragmentation_threshold_bytes=300)
        _, nodes = build_network(sim, config=config)
        (tx, _), (rx, _) = nodes
        tx.send(rx.address, bytes(900))
        sim.run(until=1.0)
        assert tx.counters.get("rx_ack") == 3

    def test_small_payload_not_fragmented(self, sim):
        config = DcfConfig(fragmentation_threshold_bytes=256)
        _, nodes = build_network(sim, config=config)
        (tx, _), (rx, rx_up) = nodes
        tx.send(rx.address, bytes(100))
        sim.run(until=0.5)
        assert tx.counters.get("fragments_sent") == 0
        assert len(rx_up.received) == 1


class TestDeduplication:
    def test_duplicate_data_delivered_once(self, sim):
        """Force an ACK-lost retransmission by making the reverse
        direction lossy is hard with a symmetric error model, so verify
        the dedup path at the MAC level instead: the retry of a frame
        whose ACK was lost is ACKed again but not delivered twice."""
        _, nodes = build_network(sim,
                                 error_model=FixedPerErrorModel(per=0.3))
        (tx, tx_up), (rx, rx_up) = nodes
        for index in range(30):
            tx.send(rx.address, bytes([index]))
        sim.run(until=10.0)
        payloads = [entry[2] for entry in rx_up.received]
        assert len(payloads) == len(set(payloads))  # no duplicates up


class TestContention:
    def test_two_saturated_senders_share_the_medium(self, sim):
        _, nodes = build_network(sim, count=3)
        (a, a_up), (b, b_up), (rx, rx_up) = nodes
        for _ in range(30):
            a.send(rx.address, b"A" * 100)
            b.send(rx.address, b"B" * 100)
        sim.run(until=10.0)
        from_a = sum(1 for entry in rx_up.received if entry[2][0:1] == b"A")
        from_b = sum(1 for entry in rx_up.received if entry[2][0:1] == b"B")
        assert from_a == 30
        assert from_b == 30

    def test_contention_produces_backoff_stages(self, sim):
        """With many saturated senders, collisions must occur and the
        contention machinery must engage (ack timeouts observed)."""
        _, nodes = build_network(sim, count=6)
        rx, rx_up = nodes[-1]
        for mac, _upper in nodes[:-1]:
            for _ in range(20):
                mac.send(rx.address, bytes(400))
        sim.run(until=20.0)
        timeouts = sum(mac.counters.get("ack_timeouts")
                       for mac, _ in nodes[:-1])
        assert timeouts > 0
        # Everything is eventually delivered despite collisions.
        assert len(rx_up.received) == 100


class TestManagement:
    def test_unicast_management_is_acked(self, sim):
        from repro.mac.frames import ManagementSubtype
        _, nodes = build_network(sim)
        (tx, _), (rx, rx_up) = nodes
        tx.send_management(ManagementSubtype.AUTHENTICATION, rx.address,
                           b"auth body")
        sim.run(until=0.5)
        assert len(rx_up.mgmt) == 1
        assert rx_up.mgmt[0].body == b"auth body"
        assert tx.counters.get("rx_ack") == 1

    def test_broadcast_management_not_acked(self, sim):
        from repro.mac.frames import ManagementSubtype
        _, nodes = build_network(sim, count=3)
        (tx, _) = nodes[0]
        tx.send_management(ManagementSubtype.BEACON, BROADCAST, b"beacon")
        sim.run(until=0.5)
        assert tx.counters.get("rx_ack") == 0
        for _mac, upper in nodes[1:]:
            assert len(upper.mgmt) == 1


class TestQueueBehaviour:
    def test_queue_overflow_reported(self, sim):
        config = DcfConfig(queue_capacity=4)
        _, nodes = build_network(sim, config=config)
        (tx, _), (rx, _) = nodes
        results = [tx.send(rx.address, b"x") for _ in range(10)]
        assert results.count(False) > 0
        assert tx.counters.get("queue_drops") > 0

    def test_idle_property(self, sim):
        _, nodes = build_network(sim)
        (tx, _), (rx, _) = nodes
        assert tx.idle
        tx.send(rx.address, b"x")
        assert not tx.idle
        sim.run(until=0.5)
        assert tx.idle


class TestSleepingRadio:
    def test_queued_frame_waits_for_wake(self, sim):
        """A MAC whose radio sleeps must not contend (and certainly not
        crash in transmit); the frame goes out after wake()."""
        _, nodes = build_network(sim)
        (tx, tx_up), (rx, rx_up) = nodes
        tx.radio.sleep()
        assert tx.send(rx.address, b"patience")
        sim.run(until=0.2)
        assert rx_up.received == []  # still asleep: nothing sent
        assert tx.radio.state.value == "sleep"
        tx.radio.wake()
        sim.run(until=0.7)
        assert [entry[2] for entry in rx_up.received] == [b"patience"]
        assert tx_up.completions[0][1] is True
