"""Radio propagation (path-loss) models.

A propagation model answers one question: given a transmit power and two
positions, what power arrives at the receiver?  Friis free-space and
log-distance with a configurable exponent are implemented, plus a fixed
loss and a hard-edged range model for tests and disc-model scenarios.

Every model implements :meth:`path_loss_db(tx, rx)`, the loss in dB;
:meth:`received_power_watts` applies it to a transmit power in dB space.
The frame hot loop does **not** call either per frame — the
:class:`~repro.phy.channel.LinkCache` memoizes
:meth:`received_power_watts` per radio pair, so a cached run is
bit-identical to one that evaluates every link fresh per frame.
"""

from __future__ import annotations

import math

from ..core.errors import ConfigurationError
from ..core.topology import Position
from ..core.units import (
    dbm_to_watts,
    frequency_to_wavelength,
    watts_to_dbm,
)


class PropagationModel:
    """Abstract base: subclasses implement :meth:`path_loss_db`."""

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        raise NotImplementedError

    def received_power_watts(self, tx_power_watts: float,
                             tx: Position, rx: Position) -> float:
        """Apply the path loss to a transmit power.

        Deliberately kept in dB space, bit-compatible with historical
        results: the hot path never calls this per frame — the
        :class:`~repro.phy.channel.LinkCache` memoizes its value per
        radio pair, so the transcendental round-trip is paid once per
        link, not once per frame.
        """
        tx_dbm = watts_to_dbm(tx_power_watts)
        rx_dbm = tx_dbm - self.path_loss_db(tx, rx)
        return dbm_to_watts(rx_dbm)


class FreeSpace(PropagationModel):
    """Friis free-space model: loss grows with 20 log10(d).

    ``loss(d) = 20 log10(4 pi d / lambda)``.  Below ``min_distance`` the
    loss is clamped to the min-distance value so co-located nodes do not
    produce infinite receive power.
    """

    def __init__(self, frequency_hz: float, min_distance: float = 1.0):
        if frequency_hz <= 0:
            raise ConfigurationError(f"bad frequency: {frequency_hz}")
        if min_distance <= 0:
            raise ConfigurationError(f"bad min_distance: {min_distance}")
        self.frequency_hz = frequency_hz
        self.min_distance = min_distance
        self._wavelength = frequency_to_wavelength(frequency_hz)

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        distance = max(tx.distance_to(rx), self.min_distance)
        return 20.0 * math.log10(4.0 * math.pi * distance / self._wavelength)


class LogDistance(PropagationModel):
    """Log-distance model: free-space up to ``reference_distance``, then a
    configurable exponent.

    ``exponent`` ≈ 2 outdoors line-of-sight, 3–4 indoors / obstructed.
    This is the workhorse model for indoor WLAN scenarios.
    """

    def __init__(self, frequency_hz: float, exponent: float = 3.0,
                 reference_distance: float = 1.0):
        if exponent < 1.0:
            raise ConfigurationError(f"implausible exponent: {exponent}")
        if reference_distance <= 0:
            raise ConfigurationError(
                f"bad reference_distance: {reference_distance}")
        self.exponent = exponent
        self.reference_distance = reference_distance
        self._free_space = FreeSpace(frequency_hz, min_distance=reference_distance)
        self._reference_loss = self._free_space.path_loss_db(
            Position(0, 0, 0), Position(reference_distance, 0, 0))

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        distance = tx.distance_to(rx)
        if distance <= self.reference_distance:
            return self._free_space.path_loss_db(tx, rx)
        return self._reference_loss + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance)


class FixedLoss(PropagationModel):
    """A constant path loss regardless of geometry.

    Useful in unit tests (deterministic link budget) and for modelling
    wired segments of a distribution system.
    """

    def __init__(self, loss_db: float):
        self.loss_db = loss_db

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        return self.loss_db


class RangePropagation(PropagationModel):
    """An idealized disc model: zero loss within ``range_m``, infinite
    beyond.  Handy for topology-focused experiments (ZigBee mesh routing)
    where radio detail is not the object of study.
    """

    def __init__(self, range_m: float,
                 in_range_loss_db: float = 40.0):
        if range_m <= 0:
            raise ConfigurationError(f"range must be positive: {range_m}")
        self.range_m = range_m
        self.in_range_loss_db = in_range_loss_db

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        if tx.distance_to(rx) <= self.range_m:
            return self.in_range_loss_db
        return math.inf


def max_range_for_budget(model: PropagationModel, tx_power_dbm: float,
                         sensitivity_dbm: float,
                         upper_bound_m: float = 1e6) -> float:
    """Binary-search the maximum distance at which the link budget closes.

    Assumes loss is non-decreasing in distance along the +x axis, as it
    is for every model above.
    """
    budget_db = tx_power_dbm - sensitivity_dbm
    origin = Position(0, 0, 0)

    def loss_at(distance: float) -> float:
        return model.path_loss_db(origin, Position(distance, 0, 0))

    if loss_at(upper_bound_m) <= budget_db:
        return upper_bound_m
    low, high = 0.0, upper_bound_m
    for _ in range(80):
        mid = (low + high) / 2.0
        if loss_at(mid) <= budget_db:
            low = mid
        else:
            high = mid
    return low
