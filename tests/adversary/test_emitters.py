"""Emitter profiles: jammers and coexistence interferers."""

import pytest

from repro.core import Position, Simulator
from repro.core.errors import ConfigurationError
from repro.adversary.emitters import (
    BT_SLOT_TIME,
    BluetoothHopper,
    ConstantJammer,
    MicrowaveOven,
    PeriodicJammer,
    ReactiveJammer,
)
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio


class Edges:
    def __init__(self):
        self.busy = 0
        self.idle = 0

    def phy_cca_busy(self):
        self.busy += 1

    def phy_cca_idle(self):
        self.idle += 1

    def plug(self, radio):
        """Fill ``radio``'s two CCA upcall slots."""
        radio.on_cca_busy = self.phy_cca_busy
        radio.on_cca_idle = self.phy_cca_idle
        return self


def edges(radio):
    """The :class:`Edges` plugged into ``radio``."""
    return radio.on_cca_busy.__self__


def build(sim, channel_id=1):
    medium = Medium(sim, FixedLoss(50.0))
    victim = Radio("victim", medium, DOT11B, Position(0, 0, 0),
                   channel_id=channel_id)
    Edges().plug(victim)
    return medium, victim


class TestConstantJammer:
    def test_wall_to_wall_busy(self, sim):
        medium, victim = build(sim)
        jammer = ConstantJammer(sim, medium, Position(1, 0, 0),
                                burst_duration=5e-3)
        jammer.start()
        sim.run(until=0.1)
        # Chained bursts leave no idle gap: one busy edge, no idle edge.
        assert edges(victim).busy == 1 and edges(victim).idle == 0
        assert victim.cca_busy()
        assert jammer.counters.get("bursts") in (20, 21)  # ~0.1 / 5e-3
        assert jammer.duty_cycle() == pytest.approx(1.0, abs=0.06)

    def test_stop_releases_the_medium(self, sim):
        medium, victim = build(sim)
        jammer = ConstantJammer(sim, medium, Position(1, 0, 0),
                                burst_duration=5e-3)
        jammer.start()
        sim.schedule_at(0.05, jammer.stop)
        sim.run(until=0.1)
        assert not victim.cca_busy()
        assert edges(victim).idle == 1


class TestEmitter:
    def test_the_channel_is_fixed_at_construction(self, sim):
        medium, _victim = build(sim)
        jammer = ConstantJammer(sim, medium, Position(1, 0, 0),
                                channel_id=6)
        assert jammer.source.channel_id == 6
        with pytest.raises(AttributeError):
            jammer.source.channel_id = 1
        assert jammer.source.channel_id == 6


class TestPeriodicJammer:
    def test_duty_cycle(self, sim):
        medium, victim = build(sim)
        jammer = PeriodicJammer(sim, medium, Position(1, 0, 0),
                                on_time=1e-3, period=4e-3)
        jammer.start()
        sim.run(until=0.4)
        assert jammer.duty == 0.25
        assert jammer.duty_cycle() == pytest.approx(0.25, rel=0.05)
        # One busy+idle pair per pulse.
        assert edges(victim).busy == edges(victim).idle
        assert edges(victim).busy == jammer.counters.get("bursts")

    def test_stop_start_toggle_does_not_double_the_chain(self, sim):
        # Regression: stop() must cancel the pending tick — a stale
        # in-heap tick surviving a stop/start toggle would chain a
        # second burst train and double the duty cycle.
        medium, _victim = build(sim)
        jammer = PeriodicJammer(sim, medium, Position(1, 0, 0),
                                on_time=1e-3, period=4e-3)
        jammer.start()
        sim.run(until=6.5e-3)
        jammer.stop()
        sim.schedule_at(7e-3, jammer.start)
        sim.run(until=0.107)
        # ~0.1 s of active time at one burst per 4 ms: a doubled chain
        # would show ~50.
        assert jammer.counters.get("bursts") == pytest.approx(27, abs=2)
        assert jammer.duty_cycle() == pytest.approx(0.25, rel=0.15)

    def test_on_time_cannot_exceed_period(self, sim):
        medium, _ = build(sim)
        with pytest.raises(ConfigurationError):
            PeriodicJammer(sim, medium, Position(1, 0, 0),
                           on_time=2e-3, period=1e-3)


class TestReactiveJammer:
    def test_reacts_only_to_real_transmissions(self, sim):
        medium, victim = build(sim)
        sender = Radio("sender", medium, DOT11B, Position(2, 0, 0))
        jammer = ReactiveJammer(sim, medium, Position(3, 0, 0))
        jammer.start()
        sim.run(until=0.05)
        assert jammer.counters.get("bursts") == 0  # idle medium: silent
        sender.transmit("frame", 8000, DOT11B.modes[0])
        sim.run(until=0.1)
        assert jammer.counters.get("triggers") >= 1
        assert jammer.counters.get("bursts") >= 1

    def test_never_decodes(self, sim):
        medium, _ = build(sim)
        jammer = ReactiveJammer(sim, medium, Position(3, 0, 0))
        assert not jammer.radio.decodable_modes


class TestBluetoothHopper:
    def test_hit_fraction_tracks_the_overlap(self, sim):
        medium, victim = build(sim)
        hopper = BluetoothHopper(sim, medium, Position(1, 0, 0))
        hopper.start()
        sim.run(until=2.0)
        slots = hopper.counters.get("slots")
        hits = hopper.counters.get("hits")
        assert slots == int(2.0 / BT_SLOT_TIME)
        # 22/79 ~ 0.278 of hops land in-band.
        assert hits / slots == pytest.approx(22 / 79, rel=0.15)
        assert edges(victim).busy == hits

    def test_seeded_hop_pattern_is_deterministic(self):
        def run():
            sim = Simulator(seed=123)
            medium, victim = build(sim)
            hopper = BluetoothHopper(sim, medium, Position(1, 0, 0))
            hopper.start()
            sim.run(until=0.5)
            return (hopper.counters.get("hits"), edges(victim).busy)

        assert run() == run()


class TestMicrowaveOven:
    def test_splatters_every_configured_channel(self, sim):
        medium = Medium(sim, FixedLoss(50.0))
        victims = {}
        for channel in (1, 6):
            radio = Radio(f"v{channel}", medium, DOT11B, Position(0, 0, 0),
                          channel_id=channel)
            Edges().plug(radio)
            victims[channel] = radio
        oven = MicrowaveOven(sim, medium, Position(1, 0, 0),
                             channels=(1, 6), mains_hz=50.0)
        oven.start()
        sim.run(until=0.205)  # past the 11th burst's begin edges
        assert oven.counters.get("bursts") == 11
        for channel in (1, 6):
            assert edges(victims[channel]).busy == 11
        # Half-duty mains cycle.
        assert oven.airtime_seconds() == pytest.approx(0.11)
