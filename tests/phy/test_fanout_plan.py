"""Tests for the compiled arrival fan-out plans and their invalidation.

The plan is a pure memoization of the per-receiver link budgets: every
topology-change hook must rebuild it (asserted through the
``plan_hits`` / ``plan_misses`` counters), and a run that keeps its
plans must stay bit-identical to one that evaluates every link afresh
for every frame (``FreshMedium``).
"""

import pytest

from repro.core import Position, Simulator
from repro.core.units import SPEED_OF_LIGHT
from repro.mobility.models import LinearMobility
from repro.phy.channel import Medium
from repro.phy.propagation import LogDistance
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio


class FreshMedium(Medium):
    """The reference for the plans: before each frame the sender's plan
    and the whole ``LinkCache`` are dropped, so every frame is evaluated
    fresh through the one transmit path."""

    def transmit(self, sender, *args):
        self._plans.pop(sender, None)
        self.links.invalidate()
        return super().transmit(sender, *args)


def _medium(sim, medium=Medium):
    return medium(sim, LogDistance(DOT11B.band_hz, exponent=3.0))


def _cell(sim, receivers=3):
    medium = _medium(sim)
    tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
    rxs = [Radio(f"rx{i}", medium, DOT11B, Position(5.0 + i, 0, 0))
           for i in range(receivers)]
    return medium, tx, rxs


MODE = DOT11B.modes[0]


class TestPlanCompilation:
    def test_first_transmit_compiles_then_hits(self, sim):
        medium, tx, _rxs = _cell(sim)
        tx.transmit(b"a", 800, MODE)
        assert (medium.plan_misses, medium.plan_hits) == (1, 0)
        sim.run(until=0.1)
        tx.transmit(b"b", 800, MODE)
        assert (medium.plan_misses, medium.plan_hits) == (1, 1)

    def test_plan_culls_sub_floor_receivers(self, sim):
        medium = Medium(sim, LogDistance(DOT11B.band_hz, exponent=4.0),
                        reception_floor_dbm=-60.0)
        tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
        near = Radio("near", medium, DOT11B, Position(3, 0, 0))
        far = Radio("far", medium, DOT11B, Position(5000, 0, 0))
        tx.transmit(b"x", 800, MODE)
        plan = medium._plans[tx][2]
        planned = {entry[0].__self__ for entry in plan}
        assert near in planned
        assert far not in planned

    def test_plan_goes_through_link_cache(self, sim):
        medium, tx, rxs = _cell(sim)
        tx.transmit(b"x", 800, MODE)
        plan = medium._plans[tx][2]
        # Every entry against a direct per-receiver evaluation:
        # bit-identical power and delay, not approx.
        assert [(begins.__self__, ends.__self__, power, delay)
                for begins, ends, power, delay in plan] == [
            (rx, rx,
             medium.propagation.received_power_watts(
                 tx.tx_power_watts, tx.position, rx.position),
             tx.position.distance_to(rx.position) / SPEED_OF_LIGHT)
            for rx in rxs]
        assert medium.links.misses == len(rxs)


class TestPlanInvalidation:
    def _warm(self, sim, medium, tx):
        tx.transmit(b"w", 800, MODE)
        sim.run(until=sim.now + 0.05)
        assert medium.plan_misses == 1

    def test_receiver_position_setter_rebuilds(self, sim):
        medium, tx, rxs = _cell(sim)
        self._warm(sim, medium, tx)
        rxs[0].position = Position(50, 0, 0)
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2

    def test_sender_position_setter_rebuilds(self, sim):
        medium, tx, _rxs = _cell(sim)
        self._warm(sim, medium, tx)
        tx.position = Position(1, 1, 0)
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2

    def test_sender_move_behind_the_hooks_rebuilds(self, sim):
        """Even a direct ``_position`` write (no invalidation hook) on
        the *sender* misses: the plan validates its position identity."""
        medium, tx, _rxs = _cell(sim)
        self._warm(sim, medium, tx)
        tx._position = Position(2, 2, 0)
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2

    def test_mobility_step_rebuilds(self, sim):
        medium, tx, rxs = _cell(sim)
        self._warm(sim, medium, tx)
        LinearMobility(sim, rxs[0], Position(40, 0, 0), speed_mps=20.0,
                       tick=0.1).start()
        sim.run(until=sim.now + 0.25)  # at least one mobility tick
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2
        # The plan carries the receiver's fresh link budget.
        plan = medium._plans[tx][2]
        moved = next(entry for entry in plan
                     if entry[0].__self__ is rxs[0])
        expected = medium.propagation.received_power_watts(
            tx.tx_power_watts, tx.position, rxs[0].position)
        assert moved[2] == expected

    def test_channel_retune_rebuilds(self, sim):
        medium, tx, rxs = _cell(sim)
        self._warm(sim, medium, tx)
        rxs[0].channel_id = 6
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2
        planned = {entry[0].__self__ for entry in medium._plans[tx][2]}
        assert rxs[0] not in planned

    def test_invalidate_links_rebuilds(self, sim):
        medium, tx, _rxs = _cell(sim)
        self._warm(sim, medium, tx)
        medium.invalidate_links()
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2

    def test_attach_rebuilds(self, sim):
        medium, tx, _rxs = _cell(sim)
        self._warm(sim, medium, tx)
        late = Radio("late", medium, DOT11B, Position(9, 0, 0))
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2
        planned = {entry[0].__self__ for entry in medium._plans[tx][2]}
        assert late in planned

    def test_tx_power_change_rebuilds(self, sim):
        medium, tx, _rxs = _cell(sim)
        self._warm(sim, medium, tx)
        tx.tx_power_watts *= 2.0
        tx.transmit(b"x", 800, MODE)
        assert medium.plan_misses == 2


class TestPlannedVersusFreshDeterminism:
    def test_same_seed_same_arrivals(self):
        """Planned and fresh runs must deliver identical per-arrival
        powers in identical order — the bit-identity contract."""
        arrivals = []

        class SpyRadio(Radio):
            def arrival_begins(self, transmission, power):
                arrivals.append((self.name, power))
                Radio.arrival_begins(self, transmission, power)

        def run(medium):
            sim = Simulator(seed=3)
            medium = _medium(sim, medium)
            tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
            for i in range(4):
                SpyRadio(f"rx{i}", medium, DOT11B, Position(10.0 + i, 0, 0))
            arrivals.clear()
            for _ in range(5):
                tx.transmit(b"payload", 800, MODE)
                sim.run(until=sim.now + 0.01)
            return list(arrivals), medium.plan_hits

        (planned, hits), (fresh, fresh_hits) = run(Medium), run(FreshMedium)
        assert planned == fresh
        assert hits > 0 and fresh_hits == 0  # no plan is ever reused

