"""Cellular networks: cells, frequency reuse, generations, handoff.

The source text (§2.4) sketches the cellular system: coverage divided
into cells, each served by a low-power transmitter, channels reused at
distance ("frequency reuse at much smaller distances"), and a ladder of
generations — 1G (2.4 kb/s analog voice) through 4G (1 Gb/s).

Model pieces:

* :class:`CellularNetwork` — a hexagonal cell cluster
  (:func:`~repro.core.topology.hexagonal_cell_centers`) with a reuse
  factor: the channel pool is split into ``reuse_factor`` groups, cells
  colored so adjacent cells never share a group.
* :class:`MobileDevice` — attaches to the strongest (nearest) cell;
  a session occupies one channel; blocked when the cell's group is
  exhausted.
* **Handoff** — mobiles re-evaluate the serving cell periodically; a
  move to a new strongest cell hands the session over (or drops it if
  the target is full), which is what experiment E8 exercises.
* :data:`GENERATIONS` — the per-generation peak data rates from the
  text, shared among a cell's active data users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..core.engine import PeriodicTask, Simulator
from ..core.errors import ConfigurationError, ProtocolError
from ..core.stats import Counter
from ..core.topology import Position, hexagonal_cell_centers, nearest
from ..core.units import gbps, kbps, mbps


@dataclass(frozen=True)
class Generation:
    """One cellular generation, per the text's §2.4 ladder."""

    name: str
    year: int
    peak_rate_bps: float
    description: str


GENERATIONS = {
    "1G": Generation("1G", 1981, kbps(2.4), "analog voice"),
    "2G": Generation("2G", 1992, kbps(64), "digital, SMS (GSM)"),
    "2.5G": Generation("2.5G", 1998, kbps(144), "2G + GPRS"),
    "3G": Generation("3G", 2000, mbps(2), "mobile data (UMTS)"),
    "3.5G": Generation("3.5G", 2006, mbps(14), "HSDPA"),
    "4G": Generation("4G", 2010, gbps(1), "all-IP (LTE-A)"),
}

_ALLOWED_REUSE = (1, 3, 4, 7, 12)


class Cell:
    """One cell site."""

    def __init__(self, cell_id: int, center: Position, channel_group: int,
                 channels: int):
        self.cell_id = cell_id
        self.center = center
        self.channel_group = channel_group
        self.channels = channels
        self.active: List["MobileDevice"] = []
        self.counters = Counter()

    @property
    def free_channels(self) -> int:
        return self.channels - len(self.active)

    def admit(self, mobile: "MobileDevice") -> bool:
        if self.free_channels <= 0:
            self.counters.incr("blocked")
            return False
        self.active.append(mobile)
        self.counters.incr("admitted")
        return True

    def release(self, mobile: "MobileDevice") -> None:
        if mobile in self.active:
            self.active.remove(mobile)


class CellularNetwork:
    """A hexagonal deployment of one generation's technology."""

    def __init__(self, sim: Simulator, generation: str = "4G",
                 rings: int = 2, cell_radius_m: float = 1500.0,
                 total_channels: int = 70, reuse_factor: int = 7):
        if generation not in GENERATIONS:
            raise ConfigurationError(f"unknown generation {generation!r}")
        if reuse_factor not in _ALLOWED_REUSE:
            raise ConfigurationError(
                f"reuse factor must be one of {_ALLOWED_REUSE}")
        if total_channels < reuse_factor:
            raise ConfigurationError("need at least one channel per group")
        self.sim = sim
        self.generation = GENERATIONS[generation]
        self.cell_radius_m = cell_radius_m
        self.reuse_factor = reuse_factor
        self.channels_per_cell = total_channels // reuse_factor
        centers = hexagonal_cell_centers(rings, cell_radius_m)
        self.cells = [Cell(index, center, index % reuse_factor,
                           self.channels_per_cell)
                      for index, center in enumerate(centers)]
        self.counters = Counter()

    # --- attachment ------------------------------------------------------------

    def strongest_cell(self, position: Position) -> Cell:
        index, _distance = nearest(position,
                                   [cell.center for cell in self.cells])
        return self.cells[index]

    def total_capacity_sessions(self) -> int:
        """Simultaneous sessions the whole deployment supports — the
        frequency-reuse payoff experiment E8 reports."""
        return self.channels_per_cell * len(self.cells)

    def data_rate_for(self, cell: Cell) -> float:
        """Per-user data rate: the generation's peak shared in-cell."""
        users = max(len(cell.active), 1)
        return self.generation.peak_rate_bps / users


class MobileDevice:
    """A handset: one session, mobility-aware, hands off between cells."""

    def __init__(self, sim: Simulator, network: CellularNetwork, name: str,
                 position: Position, reevaluate_every: float = 1.0):
        self.sim = sim
        self.network = network
        self.name = name
        self.position = position
        self.serving: Optional[Cell] = None
        self.counters = Counter()
        self.in_session = False
        self._monitor = PeriodicTask(sim, reevaluate_every,
                                     self._reevaluate)

    # --- session control -----------------------------------------------------------

    def start_session(self) -> bool:
        """Place a call / open a data session; False if blocked."""
        if self.in_session:
            raise ProtocolError(f"{self.name} already in a session")
        cell = self.network.strongest_cell(self.position)
        if not cell.admit(self):
            self.counters.incr("blocked")
            return False
        self.serving = cell
        self.in_session = True
        self.counters.incr("sessions")
        return True

    def end_session(self) -> None:
        if self.serving is not None:
            self.serving.release(self)
        self.serving = None
        self.in_session = False

    def current_rate_bps(self) -> float:
        if not self.in_session or self.serving is None:
            return 0.0
        return self.network.data_rate_for(self.serving)

    # --- handoff ------------------------------------------------------------------

    def _reevaluate(self) -> None:
        if not self.in_session or self.serving is None:
            return
        best = self.network.strongest_cell(self.position)
        if best is self.serving:
            return
        # Hard handoff: break-before-make on channel exhaustion.
        if best.admit(self):
            self.serving.release(self)
            self.serving = best
            self.counters.incr("handoffs")
        else:
            self.serving.release(self)
            self.serving = None
            self.in_session = False
            self.counters.incr("dropped")
