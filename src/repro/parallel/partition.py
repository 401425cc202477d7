"""Automatic shard partitioning for the parallel executor.

A *cell* is the unit of placement: a named group of radios (a BSS, a
mesh cluster, an emitter field) that lives on one channel inside a
bounded disc.  Two cells **couple** when a transmission in one can be
heard in the other — same channel AND the strongest transmitter's
power, propagated across the *closest approach* between the two discs,
still clears the medium's reception floor.  This is exactly the
reachability the fan-out compiler's floor cull applies per receiver,
lifted to cell granularity; cells on orthogonal channels or beyond each
other's energy floor cannot exchange a single joule and are therefore
free to simulate in different processes with no synchronization at all.

:func:`partition_cells` builds the coupling graph, collapses coupled
cells into atomic groups (a group can never be split across shards —
within-group interaction is tight and belongs in one event loop), packs
groups onto ``workers`` shards balanced by declared cell weight, and
derives the conservative **lookahead** for every coupled cross-shard
pair: the minimum possible propagation delay between the two cells
(closest-approach distance over the speed of light).  A shard may
safely run ``lookahead`` seconds past a coupled neighbour's fenced
clock, because nothing the neighbour transmits can arrive sooner — the
conservative-synchronization bound of the executor.

An explicit ``manual`` override maps cell names to shard indices for
experiments that want a specific layout; couplings are still computed,
so a manual split of a coupled pair simply yields a finite lookahead
instead of an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from ..core.errors import ConfigurationError
from ..core.topology import Position
from ..core.units import SPEED_OF_LIGHT, dbm_to_watts
from ..phy.propagation import PropagationModel

#: Closest-approach distances are clamped to this floor so overlapping
#: cell discs probe the propagation model at a sane reference distance
#: (and the derived lookahead never divides by zero).
MIN_COUPLING_DISTANCE_M = 1.0


@dataclass(frozen=True)
class CellSpec:
    """One partitionable cell of a scenario.

    ``build`` is called inside whichever process the cell lands in,
    with a :class:`~repro.parallel.executor.CellBuild` context (sim,
    medium, namespaced RNG, deterministic addresses); it must return a
    zero-argument callable producing the cell's final stats dict (plain
    picklable values).  ``center``/``radius_m`` bound every radio the
    builder creates — the partitioner's reachability probe assumes no
    cell hardware lives outside the disc.  ``max_tx_power_dbm`` is the
    strongest transmitter the cell will ever key (used only for the
    coupling probe; overstating it is safe, understating it is not).
    ``weight`` steers load balancing (roughly: event rate; station
    count is a fine proxy).
    """

    name: str
    channel: int
    center: Position
    radius_m: float
    build: Callable[..., Callable[[], Dict]]
    weight: float = 1.0
    max_tx_power_dbm: float = 20.0


@dataclass(frozen=True)
class Coupling:
    """A coupled (mutually audible) cell pair and its lookahead."""

    cell_a: str
    cell_b: str
    channel: int
    distance_m: float   # closest approach between the two discs
    delay_s: float      # distance_m / c: the conservative lookahead


@dataclass(frozen=True)
class ShardPlan:
    """The output of :func:`partition_cells`, consumed by the executor.

    ``shards`` is the cell assignment (cells sorted by name inside each
    shard); ``lookahead`` maps each *directed* coupled cross-shard pair
    to the minimum propagation delay between them; ``export_channels``
    lists, per shard, the channels whose transmissions must be exported
    as boundary records; ``routes`` maps ``(source_shard, channel)`` to
    the destination shards that must receive those records.
    """

    cells: Tuple[CellSpec, ...]
    shards: Tuple[Tuple[CellSpec, ...], ...]
    shard_of: Mapping[str, int]
    couplings: Tuple[Coupling, ...]
    lookahead: Mapping[Tuple[int, int], float]
    export_channels: Tuple[FrozenSet[int], ...]
    routes: Mapping[Tuple[int, int], Tuple[int, ...]]

    @property
    def coupled(self) -> bool:
        """True when any cross-shard pair exchanges boundary arrivals."""
        return bool(self.lookahead)

    @property
    def min_lookahead(self) -> float:
        """The tightest cross-shard synchronization bound (inf when
        fully decoupled: every shard runs to the horizon in one step)."""
        return min(self.lookahead.values(), default=float("inf"))

    def incoming(self, shard: int) -> Dict[int, float]:
        """``{source_shard: lookahead_s}`` for couplings into ``shard``."""
        return {src: delay for (src, dst), delay in self.lookahead.items()
                if dst == shard}

    def index_of(self, cell_name: str) -> int:
        """Global (sorted-by-name) index of a cell — the deterministic
        basis for per-cell MAC address blocks."""
        for index, cell in enumerate(self.cells):
            if cell.name == cell_name:
                return index
        raise KeyError(cell_name)

    def describe(self) -> Dict:
        """Canonical, JSON-ready digest (pinned key order is the
        caller's job via ``sort_keys``)."""
        return {
            "shards": [[cell.name for cell in shard]
                       for shard in self.shards],
            "channels": {cell.name: cell.channel for cell in self.cells},
            "couplings": [
                {"a": c.cell_a, "b": c.cell_b, "chan": c.channel,
                 "dist_m": repr(c.distance_m), "delay_s": repr(c.delay_s)}
                for c in self.couplings],
            "lookahead": {f"{src}->{dst}": repr(delay)
                          for (src, dst), delay
                          in sorted(self.lookahead.items())},
        }


def _closest_approach(a: CellSpec, b: CellSpec) -> float:
    gap = a.center.distance_to(b.center) - a.radius_m - b.radius_m
    return max(gap, MIN_COUPLING_DISTANCE_M)


def find_couplings(cells: Tuple[CellSpec, ...],
                   propagation: PropagationModel,
                   reception_floor_dbm: float) -> Tuple[Coupling, ...]:
    """Every mutually audible cell pair, in (name, name) sorted order.

    The probe is conservative in the right direction: it evaluates the
    propagation model across the closest approach between the discs at
    the stronger cell's maximum transmit power, so any real radio pair
    (necessarily at >= that distance, <= that power) is audible only if
    the probe is.
    """
    floor_watts = dbm_to_watts(reception_floor_dbm)
    origin = Position(0.0, 0.0, 0.0)
    couplings: List[Coupling] = []
    for i, a in enumerate(cells):
        for b in cells[i + 1:]:
            if a.channel != b.channel:
                continue
            gap = _closest_approach(a, b)
            power_watts = dbm_to_watts(
                max(a.max_tx_power_dbm, b.max_tx_power_dbm))
            rx_watts = propagation.received_power_watts(
                power_watts, origin, Position(gap, 0.0, 0.0))
            if rx_watts >= floor_watts:
                couplings.append(Coupling(a.name, b.name, a.channel, gap,
                                          gap / SPEED_OF_LIGHT))
    return tuple(couplings)


def _union_groups(cells: Tuple[CellSpec, ...],
                  couplings: Tuple[Coupling, ...]) -> List[List[CellSpec]]:
    """Connected components of the coupling graph (union-find)."""
    parent = {cell.name: cell.name for cell in cells}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for coupling in couplings:
        root_a, root_b = find(coupling.cell_a), find(coupling.cell_b)
        if root_a != root_b:
            # Deterministic union direction: smaller name wins.
            if root_a < root_b:
                parent[root_b] = root_a
            else:
                parent[root_a] = root_b
    groups: Dict[str, List[CellSpec]] = {}
    for cell in cells:
        groups.setdefault(find(cell.name), []).append(cell)
    # Cells are already name-sorted; group order follows each group's
    # first member so the whole structure is reproducible.
    return [groups[root] for root in sorted(groups)]


def pack_lpt(weights: Sequence[float], bins: int) -> List[int]:
    """The bin of every item under LPT: heaviest item first, onto the
    least-loaded bin.  Ties break on the lower item index, then the
    lower bin index, so the packing is a pure function of its input."""
    loads = [0.0] * bins
    placement = [0] * len(weights)
    for item in sorted(range(len(weights)),
                       key=lambda i: (-weights[i], i)):
        target = min(range(bins), key=lambda b: (loads[b], b))
        placement[item] = target
        loads[target] += weights[item]
    return placement


def partition_cells(cells, propagation: PropagationModel, *,
                    workers: int,
                    reception_floor_dbm: float = -110.0,
                    manual: Optional[Mapping[str, int]] = None) -> ShardPlan:
    """Partition ``cells`` into at most ``workers`` shards.

    Automatic mode groups coupled cells (they must share an event
    loop... unless ``manual`` says otherwise) and greedy-packs the
    groups onto shards by descending weight, heaviest group to the
    least-loaded shard — the classic LPT balance heuristic, fully
    deterministic here because every tie breaks on sorted names.

    ``manual`` maps every cell name to an explicit shard index in
    ``range(workers)``; coupled cells split across shards then
    synchronize through the executor's conservative lookahead instead
    of sharing a heap.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    ordered = tuple(sorted(cells, key=lambda cell: cell.name))
    if not ordered:
        raise ConfigurationError("no cells to partition")
    names = [cell.name for cell in ordered]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate cell names in {names}")
    couplings = find_couplings(ordered, propagation, reception_floor_dbm)

    if manual is not None:
        missing = [name for name in names if name not in manual]
        if missing:
            raise ConfigurationError(
                f"manual partition is missing cells: {missing}")
        bogus = sorted(set(manual) - set(names))
        if bogus:
            raise ConfigurationError(
                f"manual partition names unknown cells: {bogus}")
        out_of_range = {name: idx for name, idx in manual.items()
                        if not 0 <= idx < workers}
        if out_of_range:
            raise ConfigurationError(
                f"manual shard indices out of range(workers={workers}): "
                f"{out_of_range}")
        shard_count = max(manual.values()) + 1
        assignment = {name: manual[name] for name in names}
    else:
        groups = _union_groups(ordered, couplings)
        shard_count = min(workers, len(groups))
        # Groups are ordered by their smallest cell name, so pack_lpt's
        # index tie-break is the sorted-name tie-break.
        placement = pack_lpt([sum(cell.weight for cell in group)
                              for group in groups], shard_count)
        assignment = {cell.name: shard
                      for group, shard in zip(groups, placement)
                      for cell in group}

    shards: List[List[CellSpec]] = [[] for _ in range(shard_count)]
    for cell in ordered:
        shards[assignment[cell.name]].append(cell)
    if any(not shard for shard in shards):
        raise ConfigurationError(
            "manual partition leaves a shard empty (indices must be "
            "contiguous from 0)")

    lookahead: Dict[Tuple[int, int], float] = {}
    export: List[set] = [set() for _ in range(shard_count)]
    routes: Dict[Tuple[int, int], set] = {}
    for coupling in couplings:
        s_a = assignment[coupling.cell_a]
        s_b = assignment[coupling.cell_b]
        if s_a == s_b:
            continue
        for src, dst in ((s_a, s_b), (s_b, s_a)):
            key = (src, dst)
            lookahead[key] = min(lookahead.get(key, float("inf")),
                                 coupling.delay_s)
            export[src].add(coupling.channel)
            routes.setdefault((src, coupling.channel), set()).add(dst)

    return ShardPlan(
        cells=ordered,
        shards=tuple(tuple(shard) for shard in shards),
        shard_of=dict(assignment),
        couplings=couplings,
        lookahead=lookahead,
        export_channels=tuple(frozenset(chans) for chans in export),
        routes={key: tuple(sorted(dests))
                for key, dests in sorted(routes.items())},
    )
