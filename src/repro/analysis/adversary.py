"""Impact analysis for the adversarial RF subsystem.

Quantifies what an attack *did* — the deltas between a baseline run and
a run under attack — in the three shapes jamming studies report:

* per-station packet-delivery-ratio / throughput deltas
  (:class:`AttackImpact`, :func:`per_station_impact`),
* jammer duty-cycle vs. goodput curves (:func:`duty_cycle_sweep`),
* spatial PDR grids (:func:`spatial_pdr_grid`) showing where in the
  cell an emitter bites.

Everything here is pure data-in/data-out; the runs themselves happen in
the caller (see ``examples/jamming_study.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, \
    Tuple

from ..core.topology import Position
from .tables import render_series, render_table


@dataclass(frozen=True)
class AttackImpact:
    """Delivery before vs. under attack, for one station or aggregate."""

    baseline_offered: int
    baseline_delivered: int
    attacked_offered: int
    attacked_delivered: int

    @property
    def baseline_pdr(self) -> float:
        if self.baseline_offered == 0:
            return math.nan
        return self.baseline_delivered / self.baseline_offered

    @property
    def attacked_pdr(self) -> float:
        if self.attacked_offered == 0:
            return math.nan
        return self.attacked_delivered / self.attacked_offered

    @property
    def pdr_delta(self) -> float:
        """Absolute PDR loss (positive = the attack hurt)."""
        return self.baseline_pdr - self.attacked_pdr

    @property
    def degradation(self) -> float:
        """Fraction of baseline delivery destroyed by the attack."""
        if not self.baseline_pdr or math.isnan(self.baseline_pdr):
            return math.nan
        return 1.0 - self.attacked_pdr / self.baseline_pdr

    def throughput_ratio(self, baseline_bytes: int,
                         attacked_bytes: int) -> float:
        """Attacked/baseline goodput over identical horizons."""
        if baseline_bytes == 0:
            return math.nan
        return attacked_bytes / baseline_bytes


#: (offered, delivered) counts keyed by station name.
DeliveryCounts = Mapping[str, Tuple[int, int]]


def per_station_impact(baseline: DeliveryCounts,
                       attacked: DeliveryCounts) -> Dict[str, AttackImpact]:
    """Per-station impacts from two runs' (offered, delivered) maps.

    Stations missing from either run are skipped — a station the
    attack disassociated entirely shows up as ``attacked_offered == 0``
    only if the caller recorded it, which is the honest accounting.
    """
    impacts = {}
    for name, (base_offered, base_delivered) in baseline.items():
        attacked_counts = attacked.get(name)
        if attacked_counts is None:
            continue
        impacts[name] = AttackImpact(
            baseline_offered=base_offered,
            baseline_delivered=base_delivered,
            attacked_offered=attacked_counts[0],
            attacked_delivered=attacked_counts[1])
    return impacts


def aggregate_impact(impacts: Mapping[str, AttackImpact]) -> AttackImpact:
    """Sum per-station counts into one cell-wide impact figure."""
    return AttackImpact(
        baseline_offered=sum(i.baseline_offered for i in impacts.values()),
        baseline_delivered=sum(i.baseline_delivered
                               for i in impacts.values()),
        attacked_offered=sum(i.attacked_offered for i in impacts.values()),
        attacked_delivered=sum(i.attacked_delivered
                               for i in impacts.values()))


def render_impact_table(title: str,
                        impacts: Mapping[str, AttackImpact]) -> str:
    """Boxed per-station PDR table, worst-hit station first."""
    rows = [[name, impact.baseline_pdr, impact.attacked_pdr,
             impact.pdr_delta, impact.degradation]
            for name, impact in sorted(
                impacts.items(),
                key=lambda item: -(item[1].pdr_delta
                                   if not math.isnan(item[1].pdr_delta)
                                   else -math.inf))]
    return render_table(
        title, ["station", "PDR", "PDR (attack)", "delta", "degraded"],
        rows, formats=[None, ".3f", ".3f", "+.3f", ".1%"])


def duty_cycle_sweep(run: Callable[[float], float],
                     duties: Sequence[float]) -> List[Tuple[float, float]]:
    """Measure goodput at each jammer duty cycle.

    ``run`` executes one full experiment at the given duty cycle and
    returns its goodput (bps or delivered count — the caller's unit);
    the sweep simply collects the curve in order.
    """
    return [(duty, run(duty)) for duty in duties]


def render_duty_curve(points: Sequence[Tuple[float, float]],
                      unit: str = "bps") -> str:
    """The duty-cycle/goodput curve as a two-column series table."""
    return render_series("jammer duty cycle vs. goodput", "duty",
                         [f"goodput ({unit})"],
                         [[duty, goodput] for duty, goodput in points],
                         formats=[".2f", ".0f"])


def spatial_pdr_grid(samples: Iterable[Tuple[Position, float]],
                     cell_m: float,
                     ) -> Dict[Tuple[int, int], float]:
    """Bin per-station PDRs onto a square grid (mean per cell).

    Keys are ``(col, row)`` cell indices (``floor(x / cell_m)``,
    ``floor(y / cell_m)``) so adjacent cells tile the plane; values are
    the mean PDR of the stations inside.  Feed it per-station positions
    and PDRs from a run under attack to see the emitter's footprint.
    """
    if cell_m <= 0.0:
        raise ValueError("cell_m must be positive")
    sums: Dict[Tuple[int, int], Tuple[float, int]] = {}
    for position, pdr in samples:
        key = (math.floor(position.x / cell_m),
               math.floor(position.y / cell_m))
        total, count = sums.get(key, (0.0, 0))
        sums[key] = (total + pdr, count + 1)
    return {key: total / count for key, (total, count) in sums.items()}


def render_pdr_grid(grid: Mapping[Tuple[int, int], float],
                    empty: str = "  .  ") -> str:
    """ASCII heat-map of a :func:`spatial_pdr_grid` result.

    Rows are printed north-up (max row first); populated cells show
    the mean PDR to two decimals.
    """
    if not grid:
        return "(empty grid)"
    cols = [key[0] for key in grid]
    rows = [key[1] for key in grid]
    lines = []
    for row in range(max(rows), min(rows) - 1, -1):
        cells = []
        for col in range(min(cols), max(cols) + 1):
            value = grid.get((col, row))
            cells.append(f" {value:.2f}" if value is not None else empty)
        lines.append("".join(cells))
    return "\n".join(lines)
