"""Energy accounting for battery-powered nodes.

The WPAN/WLAN trade-off the source text keeps returning to — "low
power demands and a low bit rate" (§2.1), the Power Management bit
(§4.2) — only becomes measurable with an energy model.
:class:`EnergyMeter` integrates power over the time a radio spends in
each state (TX / RX / idle listen / doze), using a configurable
consumption profile.

The default profile is a typical 802.11 client radio at 3.3 V:
transmit 280 mA, receive/listen 180 mA, doze 2 mA.  What matters for
the experiments is the *ratio* — listening costs two orders of
magnitude more than dozing, which is the entire argument for
power-save mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .engine import Simulator
from .errors import ConfigurationError


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power draw in watts."""

    tx_watts: float = 0.280 * 3.3
    rx_watts: float = 0.180 * 3.3
    idle_watts: float = 0.180 * 3.3  # listening costs like receiving
    sleep_watts: float = 0.002 * 3.3

    def watts_for(self, state_name: str) -> float:
        table = {"tx": self.tx_watts, "rx": self.rx_watts,
                 "idle": self.idle_watts, "sleep": self.sleep_watts}
        try:
            return table[state_name]
        except KeyError:
            raise ConfigurationError(f"unknown radio state {state_name!r}")


class EnergyMeter:
    """Integrates a radio's energy use across state changes.

    Wire it to a radio with ``radio.on_state_change = meter.state_changed``
    (done automatically by ``attach``).
    """

    def __init__(self, sim: Simulator, profile: PowerProfile = PowerProfile(),
                 initial_state: str = "idle"):
        self.sim = sim
        self.profile = profile
        self._state = initial_state
        self._since = sim.now
        self._joules = 0.0
        self._state_time: Dict[str, float] = {}

    def attach(self, radio) -> None:
        """Bind to a radio's state-change hook and adopt its state."""
        self._state = radio.state.value
        self._since = self.sim.now
        radio.on_state_change = self.state_changed

    def state_changed(self, new_state: str) -> None:
        now = self.sim.now
        elapsed = now - self._since
        self._joules += self.profile.watts_for(self._state) * elapsed
        self._state_time[self._state] = \
            self._state_time.get(self._state, 0.0) + elapsed
        self._state = new_state
        self._since = now

    def finish(self) -> None:
        """Close the open interval at the current simulation time."""
        self.state_changed(self._state)

    @property
    def joules(self) -> float:
        open_interval = self.profile.watts_for(self._state) * \
            (self.sim.now - self._since)
        return self._joules + open_interval

    def seconds_in(self, state_name: str) -> float:
        base = self._state_time.get(state_name, 0.0)
        if state_name == self._state:
            base += self.sim.now - self._since
        return base

    def mean_power_watts(self, since_start: float = 0.0) -> float:
        elapsed = self.sim.now - since_start
        if elapsed <= 0:
            return 0.0
        return self.joules / elapsed
