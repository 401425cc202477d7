"""Tests for the PHY link-budget cache and its invalidation paths."""

from repro.campaign import run_job, runner
from repro.core import Position, Simulator
from repro.mobility.models import LinearMobility
from repro.phy.channel import LinkCache, Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from test_fanout_plan import FreshMedium



def _medium(sim, medium=Medium):
    return medium(sim, LogDistance(DOT11B.band_hz, exponent=3.0))


class TestLinkCacheLookups:
    def test_lookup_hits_after_first_computation(self, sim):
        medium = _medium(sim)
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(10, 0, 0))
        first = medium.links.lookup(medium.propagation, a, b, a.tx_power_watts)
        second = medium.links.lookup(medium.propagation, a, b, a.tx_power_watts)
        assert first == second
        assert medium.links.hits == 1
        assert medium.links.misses == 1

    def test_cached_power_matches_model_exactly(self, sim):
        medium = _medium(sim)
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(25, 0, 0))
        rx_power, _delay, *_ = medium.links.lookup(
            medium.propagation, a, b, a.tx_power_watts)
        expected = medium.propagation.received_power_watts(
            a.tx_power_watts, a.position, b.position)
        assert rx_power == expected  # bit-identical, not approx

    def test_moving_a_radio_invalidates_its_links(self, sim):
        medium = _medium(sim)
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(10, 0, 0))
        near = medium.links.lookup(medium.propagation, a, b,
                                   a.tx_power_watts)[0]
        b.position = Position(50, 0, 0)  # the position setter invalidates
        far = medium.links.lookup(medium.propagation, a, b,
                                  a.tx_power_watts)[0]
        assert far < near
        assert medium.links.misses == 2

    def test_explicit_invalidate_single_radio(self, sim):
        medium = _medium(sim)
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(10, 0, 0))
        c = Radio("c", medium, DOT11B, Position(20, 0, 0))
        for rx in (b, c):
            medium.links.lookup(medium.propagation, a, rx, a.tx_power_watts)
        assert len(medium.links) == 2
        medium.invalidate_links(b)
        assert len(medium.links) == 1
        medium.invalidate_links()
        assert len(medium.links) == 0

    def test_power_change_misses_the_cache(self, sim):
        medium = _medium(sim)
        a = Radio("a", medium, DOT11B, Position(0, 0, 0))
        b = Radio("b", medium, DOT11B, Position(10, 0, 0))
        low = medium.links.lookup(medium.propagation, a, b, 0.01)[0]
        high = medium.links.lookup(medium.propagation, a, b, 0.1)[0]
        assert high > low


class TestMobilityInvalidation:
    def test_moving_station_sees_updated_receive_power(self, sim):
        """A radio driven by a mobility model must observe fresh link
        budgets on the next transmission after every move."""
        medium = _medium(sim)
        tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0))
        before = medium.link_rx_power_dbm(tx, rx)
        # Warm the transmit-path cache too.
        medium.links.lookup(medium.propagation, tx, rx, tx.tx_power_watts)
        mobility = LinearMobility(sim, rx, Position(80, 0, 0),
                                  speed_mps=25.0, tick=0.1)
        mobility.start()
        sim.run(until=3.5)  # walked ~80 m
        after_cached = medium.links.lookup(
            medium.propagation, tx, rx, tx.tx_power_watts)[0]
        expected = medium.propagation.received_power_watts(
            tx.tx_power_watts, tx.position, rx.position)
        assert after_cached == expected
        assert medium.link_rx_power_dbm(tx, rx) < before - 10.0

    def test_identity_validation_catches_direct_position_writes(self, sim):
        """Even bypassing the property (worst case), a replaced Position
        object fails the identity check and recomputes."""
        medium = _medium(sim)
        tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0))
        near = medium.links.lookup(medium.propagation, tx, rx,
                                   tx.tx_power_watts)[0]
        rx._position = Position(50, 0, 0)  # no invalidation hook fired
        far = medium.links.lookup(medium.propagation, tx, rx,
                                  tx.tx_power_watts)[0]
        assert far < near


class TestCachedVersusFreshDeterminism:
    def test_same_seed_same_delivery(self):
        """A full transmit/receive cycle with the cache kept and dropped
        before every frame must deliver identical payloads at identical
        powers."""
        arrivals = []

        class SpyRadio(Radio):
            # Radio itself is __slots__-only; a subclass is the hook
            # point for observing per-arrival powers.
            def arrival_begins(self, transmission, power):
                arrivals.append(power)
                Radio.arrival_begins(self, transmission, power)

        def run(medium):
            sim = Simulator(seed=3)
            medium = _medium(sim, medium)
            tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
            rx = SpyRadio("rx", medium, DOT11B, Position(12, 0, 0))
            arrivals.clear()
            mode = DOT11B.modes[0]
            for _ in range(5):
                tx.transmit(b"payload", 800, mode)
                sim.run(until=sim.now + 0.01)
            return list(arrivals)

        assert run(Medium) == run(FreshMedium)

    def test_whole_saturated_run_is_the_same_without_the_cache(
            self, spec_job, monkeypatch):
        """The LinkCache is a pure memoization: dropping it before every
        frame must not change a single delivered byte or executed event
        of a whole 20-station saturation run
        (``specs/dcf_saturation.toml``)."""
        cached = run_job(spec_job("dcf_saturation"))
        monkeypatch.setattr(runner, "Medium", FreshMedium)
        fresh = run_job(spec_job("dcf_saturation"))

        def outcome(stats):
            return {key: value for key, value in stats.items()
                    if not key.startswith(("link_cache", "fanout_"))}

        assert outcome(cached) == outcome(fresh)
        # And the caching worked: per-frame lookups hit the fan-out
        # plans, which the LinkCache warms (every pair looked up at
        # least once, no thrashing); dropped before each frame, no plan
        # is ever reused.
        assert cached["fanout_plan_hits"] > 10 * cached["fanout_plan_misses"]
        assert cached["link_cache_misses"] > 0
        assert fresh["fanout_plan_hits"] == 0
