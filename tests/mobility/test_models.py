"""Tests for mobility models."""

import pytest

from repro.core import Position
from repro.core.errors import ConfigurationError
from repro.mobility.models import (
    LinearMobility,
    StaticMobility,
)


class Dot:
    """A minimal positioned object."""

    def __init__(self, position=Position(0, 0, 0)):
        self.position = position


class TestStatic:
    def test_never_moves(self, sim):
        dot = Dot(Position(3, 4, 0))
        StaticMobility(sim, dot, tick=0.1).start()
        sim.run(until=5.0)
        assert dot.position == Position(3, 4, 0)


class TestLinear:
    def test_constant_speed_progress(self, sim):
        dot = Dot()
        LinearMobility(sim, dot, Position(100, 0, 0), speed_mps=10.0,
                       tick=0.1).start()
        sim.run(until=2.001)
        assert dot.position.x == pytest.approx(20.0, abs=1.0)

    def test_stops_at_destination(self, sim):
        dot = Dot()
        LinearMobility(sim, dot, Position(5, 0, 0), speed_mps=10.0,
                       tick=0.1).start()
        sim.run(until=10.0)
        assert dot.position == Position(5, 0, 0)

    def test_bounce_returns(self, sim):
        dot = Dot()
        LinearMobility(sim, dot, Position(10, 0, 0), speed_mps=10.0,
                       bounce=True, tick=0.1).start()
        # 1 s out, then it turns around; at t=2 s it is back at origin.
        sim.run(until=2.05)
        assert dot.position.x == pytest.approx(0.0, abs=1.5)

    def test_observer_notified(self, sim):
        dot = Dot()
        mobility = LinearMobility(sim, dot, Position(10, 0, 0),
                                  speed_mps=1.0, tick=0.5)
        positions = []
        mobility.on_move(positions.append)
        mobility.start()
        sim.run(until=2.1)
        assert len(positions) == 4

    def test_stop_freezes(self, sim):
        dot = Dot()
        mobility = LinearMobility(sim, dot, Position(100, 0, 0),
                                  speed_mps=10.0, tick=0.1)
        mobility.start()
        sim.run(until=1.0)
        mobility.stop()
        frozen = dot.position
        sim.run(until=5.0)
        assert dot.position == frozen

    def test_tick_validation(self, sim):
        with pytest.raises(ConfigurationError):
            LinearMobility(sim, Dot(), Position(1, 0, 0), speed_mps=1.0,
                           tick=0.0)

    def test_second_start_arms_no_second_task(self, sim):
        dot = Dot()
        mobility = LinearMobility(sim, dot, Position(10, 0, 0),
                                  speed_mps=1.0, tick=0.5)
        positions = []
        mobility.on_move(positions.append)
        mobility.start()
        mobility.start()
        sim.run(until=2.1)
        assert len(positions) == 4
        assert dot.position.x == pytest.approx(2.0)

    def test_speed_validation(self, sim):
        with pytest.raises(ConfigurationError):
            LinearMobility(sim, Dot(), Position(1, 0, 0), speed_mps=0.0)
