"""Mobility models.

A mobility model owns a device's position over time, updating it at a
fixed tick.  Position updates are visible to the propagation layer
immediately (radios read ``position`` at transmit time), so mobility,
rate adaptation, and roaming interact the way they do in a real
deployment.

* :class:`StaticMobility` — placement only, no movement.
* :class:`LinearMobility` — constant velocity (the "walk down the
  corridor" scenario driving rate-adaptation benches).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from ..core.engine import PeriodicTask, Simulator
from ..core.errors import ConfigurationError
from ..core.topology import Position


class Positioned(Protocol):
    """Anything with a mutable position (devices, radios)."""

    position: Position


class MobilityModel:
    """Base: updates the target's position every ``tick`` seconds."""

    def __init__(self, sim: Simulator, target: Positioned,
                 tick: float = 0.1):
        if tick <= 0:
            raise ConfigurationError(f"tick must be positive: {tick}")
        self.sim = sim
        self.target = target
        self.tick = tick
        self._task: Optional[PeriodicTask] = None
        self._observers: List[Callable[[Position], None]] = []

    def start(self) -> None:
        if self._task is None:
            self._task = PeriodicTask(self.sim, self.tick, self._step)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def on_move(self, observer: Callable[[Position], None]) -> None:
        self._observers.append(observer)

    def _step(self) -> None:
        new_position = self.advance(self.tick)
        # This assignment is the link-cache invalidation hook: devices
        # and radios expose ``position`` as a property whose setter
        # calls Medium.invalidate_links, so every mobility tick flushes
        # the moved node's cached link budgets (and the cache's
        # position-identity check backstops any target that bypasses
        # the property).
        self.target.position = new_position
        for observer in self._observers:
            observer(new_position)

    def advance(self, dt: float) -> Position:
        """Compute the position after ``dt`` seconds (subclass hook)."""
        raise NotImplementedError


class StaticMobility(MobilityModel):
    """No movement; exists so code can treat all nodes uniformly."""

    def advance(self, dt: float) -> Position:
        return self.target.position


class LinearMobility(MobilityModel):
    """Constant-velocity motion with optional bounce at segment ends.

    Moves from the target's starting position toward ``destination`` at
    ``speed_mps``; on arrival, either stops or (``bounce=True``) turns
    around and walks back, forever.
    """

    def __init__(self, sim: Simulator, target: Positioned,
                 destination: Position, speed_mps: float,
                 bounce: bool = False, tick: float = 0.1):
        super().__init__(sim, target, tick)
        if speed_mps <= 0:
            raise ConfigurationError(f"speed must be positive: {speed_mps}")
        self.speed_mps = speed_mps
        self.bounce = bounce
        self._origin = target.position
        self._destination = destination

    def advance(self, dt: float) -> Position:
        current = self.target.position
        remaining = current.distance_to(self._destination)
        step = self.speed_mps * dt
        if step < remaining:
            return current.toward(self._destination, step)
        if not self.bounce:
            return self._destination
        # Arrive and turn around, carrying over leftover distance.
        leftover = step - remaining
        self._origin, self._destination = self._destination, self._origin
        arrived = self.target.position = self._origin
        if leftover <= 0 or arrived.distance_to(self._destination) == 0:
            return arrived
        return arrived.toward(self._destination, leftover)
