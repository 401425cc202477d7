"""Float-drift regression tests for interference accounting.

After thousands of overlapping arrivals and departures, a radio's
residual interference figures must return *exactly* to the no-arrival
value, because the arrival table empties (``sum([])`` is 0.0).  Also
guards the negative-residue clamp in ``_refresh_interference``.
"""

import itertools

from repro.core import Position
from repro.phy.channel import Medium, Transmission
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio, RadioConfig, RadioState


class _Carrier:
    """Minimal stand-in for a Transmission as an arrival-table key."""

    _ids = itertools.count()

    def __init__(self):
        self.id = next(self._ids)

    def __hash__(self):
        return self.id

    def __eq__(self, other):
        return self is other


def _deaf_radio(sim, name="rx"):
    """A radio that never locks (infinite preamble threshold), so the
    arrival churn below is pure energy accounting."""
    medium = Medium(sim, FixedLoss(50.0))
    config = RadioConfig(preamble_detection_snr_db=float("inf"))
    return Radio(name, medium, DOT11B, Position(0, 0, 0), config=config)


CHURN_ROUNDS = 4000


def _churn(radio, begins, ends, overlap=7):
    """Thousands of overlapping begin/end edges with ragged powers."""
    live = []
    for round_index in range(CHURN_ROUNDS):
        carrier = _Carrier()
        # Ragged, non-representable powers: summing and un-summing these
        # in float accumulates residue unless the table is re-summed.
        power = 1e-9 * (1.0 + 0.1 * (round_index % 13)) / 3.0
        begins(carrier, power)
        live.append(carrier)
        if len(live) > overlap:
            ends(live.pop(0))
    for carrier in live:
        ends(carrier)


class TestExactModeDrift:
    def test_residual_returns_exactly_to_zero(self, sim):
        radio = _deaf_radio(sim)
        _churn(radio, radio.arrival_begins, radio.arrival_ends)
        assert radio.total_incident_power_watts() == 0.0
        assert not radio._arrivals
        assert not radio.cca_busy()


class TestClampPath:
    def test_locked_interference_residue_clamps_to_zero(self, sim):
        """Overlap churn around a locked reception must leave the
        tracker's interference at exactly the no-interferer value."""
        medium = Medium(sim, FixedLoss(50.0))
        tx = Radio("tx", medium, DOT11B, Position(0, 0, 0))
        rx = Radio("rx", medium, DOT11B, Position(5, 0, 0))
        tx.transmit(b"frame", 80000, DOT11B.modes[0])
        sim.run(until=0.0001)  # the arrival locked the receiver
        assert rx.state is RadioState.RX
        live = []
        for index in range(1500):
            carrier = _Carrier()
            rx.arrival_begins(carrier, 2e-10 * (1 + index % 11) / 7.0)
            live.append(carrier)
            if len(live) > 5:
                rx.arrival_ends(live.pop(0))
        for carrier in live:
            rx.arrival_ends(carrier)
        # Only the locked signal remains: the interference fast path
        # must report exactly 0.0 (sum([locked]) - locked), and the
        # clamp must have absorbed any negative residue along the way.
        rx._refresh_interference()
        assert rx._locked_tracker._current_interference == 0.0
