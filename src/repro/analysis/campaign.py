"""Seed-ensemble and sweep analysis over campaign result stores.

Consumes the row dicts produced by :mod:`repro.campaign` (read back
with :func:`repro.campaign.read_store`) and turns per-seed samples into
the two shapes papers report:

* mean / 95%-CI ensemble tables per sweep point
  (:func:`ensemble_table`, :func:`render_ensemble_table`),
* sweep curves — one axis on x, mean±CI of one statistic on y
  (:func:`sweep_curve`, :func:`render_sweep_curve`) — the
  generalisation of ``duty_cycle_sweep`` to arbitrary spec axes,
* differential gates (:func:`compare_stats`,
  :func:`differential_gate`): match two stores job-by-job — the same
  grid run two ways, e.g. on both kernels — and check every statistic
  against per-stat tolerances.

Pure data-in/data-out, stdlib only: the t critical values for small
ensembles are a built-in table (95% two-sided, the textbook column), so
no SciPy dependency sneaks in.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .tables import render_table

__all__ = [
    "EnsembleStat",
    "Mismatch",
    "compare_stats",
    "differential_gate",
    "ensemble",
    "ensemble_table",
    "group_rows",
    "render_ensemble_table",
    "render_sweep_curve",
    "sweep_curve",
    "t_critical",
]

#: Two-sided 95% Student-t critical values by degrees of freedom.
#: Beyond the table the normal approximation (1.960) is within 0.5%.
_T_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


def t_critical(df: int) -> float:
    """95% two-sided Student-t critical value for ``df`` degrees of
    freedom (normal approximation past df=30)."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _T_95.get(df, 1.960)


@dataclass(frozen=True)
class EnsembleStat:
    """Mean and spread of one statistic across a seed ensemble."""

    n: int
    mean: float
    std: float
    #: Half-width of the 95% confidence interval on the mean
    #: (``t * std / sqrt(n)``; 0 for a single sample).
    ci95: float

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95


def ensemble(values: Sequence[float]) -> EnsembleStat:
    """Mean / sample-std / 95% CI half-width of one sample set."""
    if not values:
        raise ValueError("cannot summarise an empty ensemble")
    n = len(values)
    mean = statistics.fmean(values)
    if n == 1:
        return EnsembleStat(n=1, mean=mean, std=0.0, ci95=0.0)
    std = statistics.stdev(values)
    return EnsembleStat(n=n, mean=mean, std=std,
                        ci95=t_critical(n - 1) * std / math.sqrt(n))


def _axes_key(axes: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(axes.items()))


def _group_label(key: Tuple[Tuple[str, Any], ...]) -> str:
    if not key:
        return "(all)"
    return "/".join(f"{path.rsplit('.', 1)[-1]}={value}"
                    for path, value in key)


def _done(rows: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    return [row for row in rows if row.get("status") == "done"]


def group_rows(rows: Sequence[Mapping[str, Any]]
               ) -> Dict[Tuple[Tuple[str, Any], ...],
                         List[Mapping[str, Any]]]:
    """Group done rows by their sweep axes (the seed ensemble per sweep
    point), preserving first-appearance order — i.e. grid order when
    the rows come straight from a store."""
    groups: Dict[Tuple[Tuple[str, Any], ...],
                 List[Mapping[str, Any]]] = {}
    for row in _done(rows):
        groups.setdefault(_axes_key(row.get("axes", {})), []).append(row)
    return groups


def _as_number(value: Any) -> Optional[float]:
    """Numeric value of one stat cell, or None.

    The canonical store renders floats via ``repr`` (byte-compare
    callers must never see them re-rounded), so rows read back with
    :func:`repro.campaign.read_store` carry them as strings — revive
    those here; anything genuinely non-numeric stays out.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _numeric_stats(row: Mapping[str, Any]) -> Dict[str, float]:
    out = {}
    for key, value in row.get("stats", {}).items():
        number = _as_number(value)
        if number is not None:
            out[key] = number
    return out


def ensemble_table(rows: Sequence[Mapping[str, Any]],
                   stats: Optional[Sequence[str]] = None
                   ) -> List[Tuple[str, Dict[str, EnsembleStat]]]:
    """Per-sweep-point seed-ensemble summaries.

    Returns ``[(group_label, {stat_name: EnsembleStat})]`` in grid
    order.  ``stats`` selects which statistics to summarise; default is
    every numeric statistic present in all rows of the group.
    """
    table = []
    for key, group in group_rows(rows).items():
        samples: Dict[str, List[float]] = {}
        for row in group:
            for name, value in _numeric_stats(row).items():
                samples.setdefault(name, []).append(float(value))
        wanted = list(stats) if stats is not None else sorted(
            name for name, values in samples.items()
            if len(values) == len(group))
        summary = {}
        for name in wanted:
            values = samples.get(name)
            if not values:
                raise KeyError(f"statistic {name!r} missing from group "
                               f"{_group_label(key)!r}")
            summary[name] = ensemble(values)
        table.append((_group_label(key), summary))
    return table


def render_ensemble_table(title: str,
                          rows: Sequence[Mapping[str, Any]],
                          stats: Sequence[str]) -> str:
    """Boxed mean±CI table: one row per sweep point, ``n`` seeds."""
    table = ensemble_table(rows, stats=stats)
    headers = ["sweep point", "n"]
    for name in stats:
        headers.extend([f"{name} mean", "ci95"])
    out_rows = []
    for label, summary in table:
        n = max((stat.n for stat in summary.values()), default=0)
        row: List[Any] = [label, n]
        for name in stats:
            row.extend([summary[name].mean, summary[name].ci95])
        out_rows.append(row)
    formats: List[Optional[str]] = [None, "d"]
    formats.extend([".4g", ".2g"] * len(stats))
    return render_table(title, headers, out_rows, formats=formats)


def sweep_curve(rows: Sequence[Mapping[str, Any]], axis: str, stat: str
                ) -> List[Tuple[Any, EnsembleStat]]:
    """One sweep curve: ``(axis value, EnsembleStat of stat)`` per
    point, in grid order.

    ``axis`` is the spec path swept (e.g.
    ``"adversaries.0.params.on_time"``); every done row must carry it
    in its ``axes``.  The generalisation of
    :func:`~repro.analysis.adversary.duty_cycle_sweep`: the runs
    already happened, the curve falls out of the store.
    """
    curve: List[Tuple[Any, EnsembleStat]] = []
    buckets: Dict[Any, List[float]] = {}
    order: List[Any] = []
    for row in _done(rows):
        axes = row.get("axes", {})
        if axis not in axes:
            raise KeyError(f"row {row.get('label')!r} has no sweep axis "
                           f"{axis!r} (axes: {sorted(axes)})")
        value = axes[axis]
        stats_row = _numeric_stats(row)
        if stat not in stats_row:
            raise KeyError(f"row {row.get('label')!r} has no statistic "
                           f"{stat!r}")
        if value not in buckets:
            buckets[value] = []
            order.append(value)
        buckets[value].append(stats_row[stat])
    for value in order:
        curve.append((value, ensemble(buckets[value])))
    return curve


def render_sweep_curve(title: str, rows: Sequence[Mapping[str, Any]],
                       axis: str, stat: str) -> str:
    """The sweep curve as a four-column series table."""
    points = sweep_curve(rows, axis, stat)
    axis_label = axis.rsplit(".", 1)[-1]
    return render_table(
        title, [axis_label, "n", f"{stat} mean", "ci95"],
        [[value, point.n, point.mean, point.ci95]
         for value, point in points],
        formats=[None, "d", ".4g", ".2g"])


@dataclass(frozen=True)
class Mismatch:
    """One statistic that fell outside its differential tolerance."""

    label: str
    stat: str
    reference: float
    candidate: float
    limit: float

    @property
    def delta(self) -> float:
        return abs(self.candidate - self.reference)

    def __str__(self) -> str:
        return (f"{self.label}: {self.stat}: |{self.candidate!r} - "
                f"{self.reference!r}| = {self.delta:g} > {self.limit:g}")


def _limit(tolerance: Any, reference: float) -> float:
    """Allowed |delta| for one stat: a bare number is absolute; a dict
    may give ``abs`` and/or ``rel`` (of the reference magnitude)."""
    if isinstance(tolerance, (int, float)):
        return float(tolerance)
    allowed = float(tolerance.get("abs", 0.0))
    allowed += float(tolerance.get("rel", 0.0)) * abs(reference)
    return allowed


def compare_stats(reference_rows: Sequence[Mapping[str, Any]],
                  candidate_rows: Sequence[Mapping[str, Any]],
                  tolerances: Mapping[str, Any]) -> List[Mismatch]:
    """Match two stores job-by-job; return every tolerance violation.

    Rows are matched by ``(axes, seed)`` — the job identity minus the
    execution mode, which is exactly what differs between two campaigns
    built from the same spec on different kernels.  Only statistics named in
    ``tolerances`` are compared; a statistic missing from either side,
    or an unmatched job, is itself a mismatch (silent shrinkage must
    not pass the gate).
    """
    def identity(row: Mapping[str, Any]) -> Tuple[Any, ...]:
        return (_axes_key(row.get("axes", {})), row.get("seed"))

    candidates = {identity(row): row for row in _done(candidate_rows)}
    mismatches: List[Mismatch] = []
    reference_done = _done(reference_rows)
    if len(candidates) != len(reference_done):
        mismatches.append(Mismatch(
            label="(store)", stat="done row count",
            reference=float(len(reference_done)),
            candidate=float(len(candidates)), limit=0.0))
    for row in reference_done:
        other = candidates.get(identity(row))
        label = row.get("label", "?")
        if other is None:
            mismatches.append(Mismatch(label=label, stat="(row missing)",
                                       reference=1.0, candidate=0.0,
                                       limit=0.0))
            continue
        ref_stats = _numeric_stats(row)
        cand_stats = _numeric_stats(other)
        for stat, tolerance in sorted(tolerances.items()):
            if stat not in ref_stats or stat not in cand_stats:
                mismatches.append(Mismatch(
                    label=label, stat=f"{stat} (absent)",
                    reference=float(stat in ref_stats),
                    candidate=float(stat in cand_stats), limit=0.0))
                continue
            reference = ref_stats[stat]
            candidate = cand_stats[stat]
            limit = _limit(tolerance, reference)
            if abs(candidate - reference) > limit:
                mismatches.append(Mismatch(
                    label=label, stat=stat, reference=reference,
                    candidate=candidate, limit=limit))
    return mismatches


def differential_gate(reference_rows: Sequence[Mapping[str, Any]],
                      candidate_rows: Sequence[Mapping[str, Any]],
                      tolerances: Mapping[str, Any]) -> None:
    """Raise ``AssertionError`` listing every violation, or pass
    silently — the CI-facing face of :func:`compare_stats`."""
    mismatches = compare_stats(reference_rows, candidate_rows, tolerances)
    if mismatches:
        details = "\n  ".join(str(mismatch) for mismatch in mismatches)
        raise AssertionError(
            f"differential gate failed ({len(mismatches)} violation(s)):"
            f"\n  {details}")
