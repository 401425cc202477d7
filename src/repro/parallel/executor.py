"""The sharded executor: conservative-lookahead multi-process runs.

:func:`run_sharded` partitions a cell list (see
:mod:`repro.parallel.partition`) into *logical* shards, forks worker
processes to host them, and drives the shards through
coordinator-paced **rounds**: each round every shard receives a safe
bound — the horizon capped by ``min(coupled source clock +
lookahead)`` — injects the boundary arrivals routed to it, runs its
event loop to the bound, and fences back its clock, event count and
outbox.  Nothing a coupled source will
ever transmit can arrive before ``source clock + lookahead`` (the
lookahead *is* the minimum cross-shard propagation delay), so every
shard executes exactly the events a single global heap would have given
it, modulo the energy-faithful boundary contract documented in
:mod:`repro.parallel.shard`.

Determinism is layered:

* **Per-cell RNG namespacing** (:meth:`RngRegistry.namespace`): every
  component draws from ``cell/<name>/...`` streams whose seeds depend
  only on the master seed and the name — byte-identical draws in a
  single process and in any shard of any partitioning.  Per-*cell* (not
  per-shard) namespacing is deliberate: it is what makes the
  single-process-vs-sharded differential gate an exact byte comparison
  for decoupled partitions.
* **Deterministic addresses**: :meth:`CellBuild.address` carves each
  cell a block of locally-administered MACs from its *global* cell
  index, independent of shard placement and build order.
* **Pinned merge order**: boundary records merge by
  ``(time, shard, seq)`` everywhere — in the round loop's batch
  (audited by ``InvariantChecker.check_merge_order``) and in the
  canonical :class:`ArrivalLog`, whose SHA-1 is the two-runs-identical
  fingerprint CI byte-compares.

**Shards are not processes.**  ``workers`` asks for logical shards:
each has its own kernel, boundary medium, collectors and telemetry hub,
and the round loop sees nothing else.  The shards are
hosted by ``min(shards, usable CPUs)`` worker processes (the affinity
mask of the calling process; :func:`_place` balances them by weight
with the partitioner's LPT packing), and a process runs the shards it
hosts in ascending shard order.  With a CPU per shard that is one
process per shard; with fewer, shards share a process instead of
fighting over a core, and a round costs one message per *process* per
direction.  When one process hosts every shard — one usable CPU, or one
shard — there is nobody to pace: that process runs the round loop
itself, advances its shards by direct call, and the coordinator
exchanges a constant number of messages per run, plus one acknowledged
piece per :data:`LOG_PIECE_LINES` arrival-log lines.  Both placements
run the one loop body, :func:`_run_rounds`.  Nothing in the result —
per-cell stats, event and round counts, the arrival log and its SHA-1,
the merged sim telemetry — depends on the placement: only the transport
batches by it.

The wire is one :class:`~repro.parallel.channel.Channel` per worker
process: each message (see :func:`_worker_main`) is a 4-byte length
plus a pickle over a pair of ``os.pipe()``s, one message in flight per
direction; boundary records cross it as the :class:`BoundaryRecord`
namedtuples they are.  A shard that raises ends the run with a
:class:`~repro.core.errors.SimulationError` naming it, the round, its
last fence ``(clock, events)`` and the boundary records pending for it,
plus the worker's traceback, clock, event count and outbox depth; a
process that dies, or stays silent for :data:`RECV_DEADLINE_S` while
the round does not move, names every shard it hosted, each with the
same context — and every worker is reaped before the error propagates.
The context comes from a :class:`_Board` the loop posts once per round,
wherever it runs.

:func:`run_single` executes the same cell list on one kernel — the
differential reference, and the ``workers=1`` baseline for scaling
measurements.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import multiprocessing
import os
import struct
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, SimulationError
from ..core.trace import TraceLog
from ..faults.invariants import InvariantChecker
from ..mac.addresses import MacAddress
from ..phy.channel import Medium
from ..phy.propagation import PropagationModel
from ..telemetry.export import to_jsonl
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.probes import Telemetry
from .channel import Channel, channel_pair
from .partition import CellSpec, ShardPlan, pack_lpt, partition_cells
from .shard import BoundaryRecord, ShardMedium

#: Base of the deterministic per-cell address blocks: locally
#: administered, with a per-cell 16-bit block index in octets 4-5 and
#: the device serial in the last two octets.  Block indices start at 1,
#: so the blocks can never collide with :func:`allocate_address`'s
#: low-serial range in mixed scenarios (< 65536 global devices).
_CELL_ADDRESS_BASE = 0x02_00_00_00_00_00

#: Longest the coordinator waits for a worker message while the round
#: loop posts no new round.  It bounds one ``sim.run`` to the next
#: bound — the whole horizon for a decoupled shard — of every shard the
#: process hosts, not the run.
RECV_DEADLINE_S = 900.0


class CellBuild:
    """Build context handed to every :class:`CellSpec`'s builder.

    The builder must construct the cell's radios/MACs/traffic on
    :attr:`sim`/:attr:`medium`, draw randomness only from :attr:`rng`,
    take addresses only from :meth:`address`, and return a zero-argument
    stats collector.  Those three rules are the portability contract:
    they make the cell's behaviour a pure function of the master seed
    and the cell's own name/index, so the same cell is bit-identical in
    a single-process run and in any shard.
    """

    def __init__(self, sim: Simulator, medium: Medium, cell: CellSpec,
                 cell_index: int,
                 checker: Optional[InvariantChecker] = None):
        self.sim = sim
        self.medium = medium
        self.cell = cell
        self.cell_index = cell_index
        #: Sweeps this worker when ``check_invariants`` is on (watch
        #: meshes/extra MACs here); ``None`` otherwise.
        self.checker = checker
        self.rng = sim.rng.namespace(f"cell/{cell.name}")
        self._serial = itertools.count()

    def address(self) -> MacAddress:
        """Next address in this cell's deterministic block."""
        serial = next(self._serial)
        if serial >= (1 << 16):
            raise ConfigurationError(
                f"cell {self.cell.name!r} exhausted its 65536-address "
                f"block")
        return MacAddress(_CELL_ADDRESS_BASE
                          | ((self.cell_index + 1) << 16) | serial)


class ArrivalLog:
    """Canonical cross-shard activity log (JSONL, byte-comparable).

    Every float is serialized through ``repr`` (shortest round-trip
    form) and every object with sorted keys, so two runs of the same
    partition produce byte-identical logs — the CI determinism gate
    hashes exactly this text.
    """

    def __init__(self, header: Optional[Dict] = None):
        # Lines not yet joined, behind the text of earlier pieces.
        self._lines: List[str] = [] if header is None \
            else [self._dump({"type": "header", **header})]
        self._pieces: List[str] = []

    @staticmethod
    def _dump(record: Dict) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    # ``arrival`` and ``fence`` are written once per boundary record
    # and twice per round, so they format their line directly: exactly
    # what ``_dump`` gives for the same dict (keys in sorted order; a
    # float's repr needs no escaping), at a fraction of the cost.

    def arrival(self, record: Tuple, dests: Sequence[int]) -> None:
        """Log one boundary record (a :class:`BoundaryRecord`, or any
        tuple of its fields) and its live destinations."""
        start, shard, seq, sender, _x, _y, _z, channel, power, duration \
            = record
        self._lines.append(
            '{"channel":%d,"dests":[%s],"duration":"%r",'
            '"power_watts":"%r","sender":%s,"seq":%d,"shard":%d,'
            '"time":"%r","type":"arrival"}'
            % (channel, ",".join(map(str, dests)), duration, power,
               json.dumps(sender), seq, shard, start))

    def fence(self, round_index: int, shard: int, clock: float,
              events: int) -> None:
        self._lines.append(
            '{"clock":"%r","events":%d,"round":%d,"shard":%d,'
            '"type":"fence"}' % (clock, events, round_index, shard))

    def final(self, shard: int, clock: float, events: int) -> None:
        self._lines.append(self._dump({
            "type": "final", "shard": shard, "clock": repr(clock),
            "events": events}))

    def __len__(self) -> int:
        """Lines written since the last :meth:`take`."""
        return len(self._lines)

    def take(self) -> str:
        """The lines written since the last call, as JSONL text that no
        longer stays here: a piece for another log's :meth:`extend`."""
        lines, self._lines = self._lines, []
        return "\n".join(lines) + "\n" if lines else ""

    def extend(self, text: str) -> None:
        """Append a piece :meth:`take` cut from another log."""
        self._pieces += (self.take(), text)

    def to_jsonl(self) -> str:
        self._pieces.append(self.take())
        text = "".join(self._pieces)
        self._pieces = [text]
        return text

    def sha1(self) -> str:
        return hashlib.sha1(self.to_jsonl().encode()).hexdigest()


def _build_cells(sim: Simulator, medium: Medium,
                 cells: Sequence[CellSpec], indices: Sequence[int],
                 checker: Optional[InvariantChecker]
                 ) -> Dict[str, Callable[[], Dict]]:
    collectors = {}
    for cell, index in zip(cells, indices):
        collectors[cell.name] = cell.build(
            CellBuild(sim, medium, cell, index, checker))
    return collectors


def run_single(cells, *, seed: int, horizon: float,
               propagation_factory: Callable[[], PropagationModel],
               reception_floor_dbm: float = -110.0,
               propagation_delay: bool = True,
               check_invariants: bool = False,
               telemetry: bool = False,
               telemetry_interval: float = 0.05) -> Dict:
    """Run every cell on one kernel — the differential reference.

    ``propagation_factory`` (not a model instance) keeps the signature
    symmetric with :func:`run_sharded`, where each worker must build
    its own model; stateless models make the two bit-comparable.

    ``telemetry=True`` instruments the kernel, medium and radio fleet
    (see :mod:`repro.telemetry`) and adds ``telemetry_jsonl`` /
    ``telemetry_wall_jsonl`` streams to the result.  Sampler events
    ride the heap, so ``events`` grows — protocol outcomes do not.
    """
    ordered = tuple(sorted(cells, key=lambda cell: cell.name))
    sim = Simulator(seed=seed, trace=TraceLog(enabled=False))
    medium = Medium(sim, propagation_factory(),
                    reception_floor_dbm=reception_floor_dbm,
                    propagation_delay=propagation_delay)
    checker = None
    if check_invariants:
        checker = InvariantChecker(sim)
        checker.watch_medium(medium)
    collectors = _build_cells(sim, medium, ordered, range(len(ordered)),
                              checker)
    if checker is not None:
        checker.install()
    hub = Telemetry(sim, enabled=telemetry,
                    sample_interval=telemetry_interval)
    hub.instrument_kernel()
    hub.instrument_medium(medium)
    hub.instrument_radios(medium._radios)
    hub.install()
    sim.run(until=horizon)
    hub.finish()
    result = {
        "cells": {name: collectors[name]() for name in sorted(collectors)},
        "events": sim.events_executed,
    }
    if telemetry:
        result["telemetry_jsonl"] = hub.sim_jsonl()
        result["telemetry_wall_jsonl"] = hub.wall_jsonl()
    return result


class _Shard:
    """One logical shard inside a worker process: its own kernel,
    boundary medium, cells, invariant checker and telemetry hub —
    nothing is shared with a shard hosted next to it."""

    def __init__(self, index: int, seed: int):
        self.index = index
        self.sim = Simulator(seed=seed, trace=TraceLog(enabled=False))
        self.medium: Optional[ShardMedium] = None
        self.busy = 0.0

    def build(self, shard_cells, global_indices, export_channels,
              propagation_factory, reception_floor_dbm: float,
              propagation_delay: bool, check_invariants: bool,
              telemetry: bool, telemetry_interval: float) -> None:
        sim, index = self.sim, self.index
        medium = self.medium = ShardMedium(
            sim, propagation_factory(),
            reception_floor_dbm=reception_floor_dbm,
            propagation_delay=propagation_delay, shard=index,
            export_channels=export_channels)
        checker = None
        if check_invariants:
            checker = InvariantChecker(sim, shard=index)
            checker.watch_medium(medium)
        self.collectors = _build_cells(sim, medium, shard_cells,
                                       global_indices, checker)
        if checker is not None:
            checker.install()
        hub = self.hub = Telemetry(sim, enabled=telemetry,
                                   sample_interval=telemetry_interval)
        hub.instrument_kernel()
        hub.instrument_medium(medium)
        hub.instrument_radios(medium._radios)
        self.advances = hub.registry.counter("parallel", "advances",
                                             shard=index)
        self.injected = hub.registry.counter(
            "parallel", "boundary_injected", shard=index)
        hub.sampler.add("parallel", "outbox_depth",
                        lambda: float(len(medium.outbox)), shard=index)
        hub.install()

    def advance(self, bound: float, records: Sequence[Tuple]) -> Tuple:
        """Inject, run to the bound, and return this shard's fence: the
        outbox drained, or ``()`` when nothing was exported."""
        sim, medium = self.sim, self.medium
        for record in records:
            medium.inject_boundary(record)
        if self.hub.enabled:
            self.advances.inc()
            self.injected.inc(len(records))
            segment_start = perf_counter()
            clock = sim.run(until=bound)
            self.busy += perf_counter() - segment_start
        else:
            clock = sim.run(until=bound)
        return (self.index, clock, sim._events_executed,
                medium.drain_outbox() if medium.outbox else ())

    def finish(self, idle: float) -> Tuple:
        """Collect this shard's stats (and telemetry streams)."""
        stats = {name: collector()
                 for name, collector in self.collectors.items()}
        payload = None
        if self.hub.enabled:
            hub = self.hub
            hub.registry.gauge("parallel", "worker_busy_seconds", wall=True,
                               shard=self.index).set(self.busy)
            hub.registry.gauge("parallel", "worker_idle_seconds", wall=True,
                               shard=self.index).set(idle)
            hub.finish()
            payload = (hub.sim_jsonl(), hub.wall_jsonl())
        return (self.index, stats, self.sim.events_executed, payload)


#: Arrival-log lines a one-host worker holds before it streams them to
#: the coordinator as one piece: the log never sits whole in both
#: processes.
LOG_PIECE_LINES = 4096


class _Board:
    """Where the round loop stands, readable from another process.

    An anonymous shared ``mmap``, made before the fork: the loop posts
    the round and every shard's last fence and pending record count
    once per round, wherever it runs, and the coordinator reads it when
    it reports a failure — and to tell a slow run from a hung one.
    """

    def __init__(self, shard_count: int):
        self._shards = shard_count
        self._layout = struct.Struct(
            f"=q{shard_count}d{shard_count}q{shard_count}q")
        self._map = mmap.mmap(-1, self._layout.size)

    def post(self, round_index: int, clocks: Sequence[float],
             events: Sequence[int], pending: Sequence[Sequence]) -> None:
        self._layout.pack_into(self._map, 0, round_index, *clocks,
                               *events, *map(len, pending))

    @property
    def round(self) -> int:
        return self._layout.unpack_from(self._map)[0]

    def context(self, shard: int) -> str:
        """What a failure report says about where ``shard`` stood."""
        posted, count = self._layout.unpack_from(self._map), self._shards
        return (f"round {posted[0]}, last fence (clock="
                f"{posted[1 + shard]!r}, events={posted[1 + count + shard]}), "
                f"{posted[1 + 2 * count + shard]} boundary records pending")

    def close(self) -> None:
        self._map.close()


def _run_rounds(plan: ShardPlan, incoming: Sequence[Mapping[int, float]],
                horizon: float, coord: MetricsRegistry, board: _Board,
                advance: Callable[[List[Tuple]], List[Tuple]],
                log: ArrivalLog) -> Tuple[int, int, List[float]]:
    """The conservative round loop, wherever it runs.

    ``advance`` takes ``[(shard, bound, records), ...]`` in ascending
    shard order and returns the fences ``(shard, clock, events,
    outbox)`` in the same order: by direct call in a process that hosts
    every shard, over the wire otherwise.  Writes the fence and arrival
    lines to ``log`` and the round metrics to ``coord``; returns the
    round count, the boundary record count and the final clocks.
    """
    shard_count = len(plan.shards)
    round_counter = coord.counter("parallel", "rounds")
    record_counter = coord.counter("parallel", "boundary_records")
    batch_sizes = coord.histogram("parallel", "boundary_batch")
    round_wall = coord.histogram(
        "parallel", "round_wall_seconds", wall=True,
        bounds=(0.0001, 0.001, 0.01, 0.1, 1.0, 10.0))
    if coord.enabled:
        # The lookahead windows are part of the partition, hence of the
        # sim-deterministic stream.
        for dst in range(shard_count):
            for src in sorted(incoming[dst]):
                coord.gauge("parallel", "lookahead_seconds",
                            src=src, dst=dst).set(incoming[dst][src])
    clocks = [0.0] * shard_count
    events = [0] * shard_count
    done = [False] * shard_count
    # Boundary records routed to each shard; a shard's list is emptied
    # once the fence answering the advance that carried it is in.
    pending: List[List[BoundaryRecord]] = [[] for _ in range(shard_count)]
    merge_tail: Dict[int, Tuple[float, int]] = {}
    rounds = boundary_records = 0
    while not all(done):
        rounds += 1
        if coord.enabled:
            round_counter.inc()
            round_start = perf_counter()
        requests = []
        for index in range(shard_count):
            if done[index]:
                continue
            bound = horizon
            for src, delay in incoming[index].items():
                if not done[src] and clocks[src] + delay < bound:
                    bound = clocks[src] + delay
            if bound <= clocks[index]:
                continue  # cannot safely advance this round
            requests.append((index, bound, pending[index]))
        if not requests:
            raise SimulationError(
                f"sharded run deadlocked at round {rounds}: no shard "
                f"can advance (clocks={clocks!r})")
        board.post(rounds, clocks, events, pending)
        # (time, shard, seq) is a record's prefix and the merge key.
        batch: List[BoundaryRecord] = []
        for shard, clock, executed, outbox in advance(requests):
            pending[shard] = []
            clocks[shard] = clock
            events[shard] = executed
            log.fence(rounds, shard, clock, executed)
            batch += outbox
            if clock >= horizon:
                done[shard] = True
        if batch:
            batch.sort()
            InvariantChecker.check_merge_order(batch, merge_tail)
            boundary_records += len(batch)
            for record in batch:
                # record[1] is the source shard, record[7] the channel.
                dests = plan.routes.get((record[1], record[7]), ())
                live = [dest for dest in dests if not done[dest]]
                log.arrival(record, live)
                for dest in live:
                    pending[dest].append(record)
        if coord.enabled:
            batch_sizes.observe(float(len(batch)))
            record_counter.inc(len(batch))
            round_wall.observe(perf_counter() - round_start)
    board.post(rounds, clocks, events, pending)
    return rounds, boundary_records, clocks


def _worker_main(conn: Channel, parent_ends: Sequence[Channel],
                 hosted: Sequence[Tuple], loop: Optional[Tuple], seed: int,
                 *settings) -> None:
    """The event loops of the shards one process hosts.

    ``hosted`` lists ``(shard, cells, global indices, export channels)``
    in ascending shard order — one entry when the machine has a CPU per
    shard, several when shards are packed — and ``settings`` are the
    remaining arguments of :meth:`_Shard.build`.

    ``loop`` is ``None`` when the coordinator paces the rounds.  Then,
    after building, send ``("ready", [shard, ...])``; for each
    ``("advance", [(shard, bound, records), ...])``, inject the records
    and run each named shard to its bound, in the order given
    (ascending), and fence back ``("fence", [(shard, clock, events,
    outbox), ...])``; on ``("finish",)`` send ``("stats", [(shard,
    {cell: stats}, events, telemetry), ...])`` — where ``telemetry`` is
    ``None`` or a ``(sim_jsonl, wall_jsonl)`` pair of that shard's
    exported streams — and exit.

    When this process hosts every shard, ``loop`` holds the leading
    arguments of :func:`_run_rounds` and the process runs the rounds
    itself, advancing its shards by direct call.  It streams the arrival
    log as ``("log", text)`` pieces of :data:`LOG_PIECE_LINES` lines,
    each acknowledged with ``("ack",)`` before the next is sent, and
    ends with ``("result", text, rounds, boundary records, clocks,
    coordinator metrics, stats)``.

    A shard that raises turns into ``("error", shard, traceback, clock,
    events, outbox depth)`` for the shard that was being built, run or
    finished; an error of the round loop itself is sent as ``("raise",
    exception)``.

    With telemetry on, every shard instruments its own kernel/medium/
    radio fleet and additionally keeps per-shard round metrics in the
    sim stream (``parallel/advances``, ``parallel/boundary_injected``
    — both pure functions of the deterministic round schedule) and
    busy/idle wall seconds in the wall stream.
    ``worker_busy_seconds`` is the shard's own time inside ``sim.run``;
    ``worker_idle_seconds`` belongs to the *process* — its wall time
    minus the busy time of every shard it hosts — and is reported once,
    on the lowest hosted shard (0.0 on the others), so the sum over
    shards stays real idle time however the shards are placed.
    """
    # An inherited copy of a coordinator-side end (this worker's own,
    # an earlier sibling's) would hold that pipe open after its owner
    # is gone; without one, a dead process is an EOF to its peer.
    for parent_end in parent_ends:
        parent_end.close()
    shards = {spec[0]: _Shard(spec[0], seed) for spec in hosted}
    # The shard at work, named if it raises; None while the round loop
    # itself works.
    shard: Optional[_Shard] = shards[hosted[0][0]]
    unacked = False  # a log piece the coordinator has not acknowledged

    def send(message: Tuple) -> None:
        nonlocal unacked
        if unacked:
            conn.recv()  # ("ack",): one message in flight per direction
        conn.send(message)
        unacked = message[0] == "log"

    def advance(requests: List[Tuple]) -> List[Tuple]:
        nonlocal shard
        fences = []
        for index, bound, records in requests:
            shard = shards[index]
            fences.append(shard.advance(bound, records))
        shard = None
        return fences

    def finish() -> List[Tuple]:
        nonlocal shard
        idle = max(0.0, perf_counter() - wall_start
                   - sum(each.busy for each in shards.values()))
        stats = []
        for shard in shards.values():
            stats.append(shard.finish(idle))
            idle = 0.0
        return stats

    try:
        for index, *spec in hosted:
            shard = shards[index]
            shard.build(*spec, *settings)
        shard = None
        wall_start = perf_counter()
        if loop is not None:
            log = ArrivalLog()

            def advance_here(requests: List[Tuple]) -> List[Tuple]:
                if len(log) >= LOG_PIECE_LINES:
                    send(("log", log.take()))
                return advance(requests)

            plan, incoming, horizon, coord, board = loop
            outcome = _run_rounds(plan, incoming, horizon, coord, board,
                                  advance_here, log)
            stats = finish()
            send(("result", log.take(), *outcome, coord, stats))
            return
        send(("ready", list(shards)))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "advance":
                send(("fence", advance(message[1])))
            elif kind == "finish":
                send(("stats", finish()))
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(
                    f"shards {list(shards)}: unknown message {kind!r}")
    except Exception as error:
        try:
            if shard is None:
                send(("raise", error))
            else:
                medium = shard.medium
                send(("error", shard.index, traceback.format_exc(),
                      shard.sim.now, shard.sim.events_executed,
                      len(medium.outbox) if medium is not None else 0))
        except (OSError, EOFError):  # the coordinator is gone
            pass
    finally:
        conn.close()


def _merge_telemetry(stream: str, coordinator_text: str,
                     shard_texts: Sequence[str]) -> str:
    """Merge coordinator + per-shard telemetry streams, pinned order.

    One merged JSONL document: a ``merged`` header, then the
    coordinator's stream, then every shard's stream in shard-index
    order, each behind a ``source`` marker line.  Every component is
    canonical (sorted keys, ``repr`` floats) and the concatenation
    order is pinned, so the merged sim stream is byte-identical
    run-to-run — the sharded determinism gate compares exactly this.
    """
    dump = ArrivalLog._dump
    lines = [dump({"type": "merged", "stream": stream,
                   "shards": len(shard_texts)}),
             dump({"type": "source", "source": "coordinator"}),
             coordinator_text.rstrip("\n")]
    for index, text in enumerate(shard_texts):
        lines.append(dump({"type": "source", "source": "shard",
                           "shard": index}))
        lines.append(text.rstrip("\n"))
    return "\n".join(lines) + "\n"


def _usable_cpus() -> int:
    """CPUs this process (and so the workers it forks) may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _place(plan: ShardPlan) -> List[List[int]]:
    """The shards each worker process hosts.

    ``min(shards, usable CPUs)`` processes, balanced by shard weight
    (the partitioner's LPT packing), every list ascending and the
    processes ordered by their lowest shard — so with a CPU per shard,
    process ``i`` hosts exactly shard ``i``.  The placement shows in no
    result: only the transport batches by it.
    """
    weights = [sum(cell.weight for cell in shard) for shard in plan.shards]
    hosted: List[List[int]] = [
        [] for _ in range(min(len(weights), _usable_cpus()))]
    for shard, process in enumerate(pack_lpt(weights, len(hosted))):
        hosted[process].append(shard)
    return sorted(shards for shards in hosted if shards)


def _send(channel: Channel, message: Tuple) -> None:
    """Send one message to a worker.

    A worker that is gone cannot take it; the :func:`_recv` that always
    follows reports why (its queued ``error`` message, or its death).
    """
    try:
        channel.send(message)
    except OSError:
        pass


def _standing(shards: Sequence[int],
              context: Callable[[int], str]) -> Tuple[str, str]:
    """Who a failure of the process hosting ``shards`` names, and where
    each of them stood."""
    if len(shards) == 1:
        return f"shard {shards[0]}", context(shards[0])
    return ("shards " + ", ".join(map(str, shards)),
            "; ".join(f"shard {shard}: {context(shard)}"
                      for shard in shards))


def _recv(channel: Channel, process, shards: Sequence[int], board: _Board):
    """Receive one message from the process hosting ``shards``.

    A reported error, a dead worker and a silent one all surface as a
    :class:`SimulationError`: an error names the shard that raised, a
    death or a silence every shard the process hosts, each with where
    the board says it stood — the round, the shard's last fence and its
    pending records.  Silence means :data:`RECV_DEADLINE_S` without a
    message *and* without a new round on the board.  An error of the
    round loop itself is raised as it was raised in the worker.
    """
    seen = board.round
    while True:
        try:
            message = channel.recv(RECV_DEADLINE_S)
            break
        except TimeoutError:
            if board.round != seen:  # slow, but the rounds still move
                seen = board.round
                continue
            who, where = _standing(shards, board.context)
            raise SimulationError(
                f"{who} timed out: no message for "
                f"{RECV_DEADLINE_S:g} s ({where})") from None
        except (EOFError, OSError):
            process.join(timeout=5)
            who, where = _standing(shards, board.context)
            raise SimulationError(
                f"{who} died without reporting an error (exit code "
                f"{process.exitcode}; {where})") from None
    if message[0] == "error":
        _, shard, trace, clock, executed, outbox = message
        # The traceback's last line ("RuntimeError: ...") leads, so the
        # first line of the report already says who failed and how.
        summary = trace.rstrip().rsplit("\n", 1)[-1]
        raise SimulationError(
            f"shard {shard} failed: {summary} ({board.context(shard)}; "
            f"worker clock={clock!r}, events={executed}, "
            f"outbox={outbox})\n{trace}")
    if message[0] == "raise":
        raise message[1]
    return message


def run_sharded(cells, *, seed: int, horizon: float, workers: int,
                propagation_factory: Callable[[], PropagationModel],
                reception_floor_dbm: float = -110.0,
                propagation_delay: bool = True,
                check_invariants: bool = False,
                manual: Optional[Mapping[str, int]] = None,
                lookahead_override: Optional[float] = None,
                telemetry: bool = False,
                telemetry_interval: float = 0.05) -> Dict:
    """Run the cells as ``workers`` logical shards, hosted by
    ``min(shards, usable CPUs)`` worker processes.

    Returns the :func:`run_single` result shape plus the sharding
    diagnostics: shard count, synchronization round count, boundary
    record count, the canonical arrival log (and its SHA-1 — the
    determinism fingerprint), and the :class:`ShardPlan`.

    ``lookahead_override`` replaces every derived cross-shard lookahead
    (test/diagnostics knob — an overstated value trips the boundary
    lookahead-violation guard, which is exactly what its test does).

    ``telemetry=True`` instruments every worker (kernel/medium/radio
    probes plus per-shard round metrics) and the round loop itself
    (round count, boundary-batch sizes, lookahead windows in the sim
    stream; per-round and coordinator wall seconds in the wall stream),
    then merges the per-shard sim streams in pinned shard-index order
    — ``telemetry_jsonl`` is byte-identical across runs of the same
    seed and partition, however the shards are placed.  Wall streams
    merge into ``telemetry_wall_jsonl``, which is machine noise and
    never gated.

    Note the sampler's events are real kernel events: per-shard event
    counts (and therefore the arrival log's fences and its SHA-1)
    differ from an uninstrumented run — but stay byte-identical across
    instrumented runs of the same configuration.  Protocol outcomes
    (per-cell stats) never change.
    """
    plan = partition_cells(cells, propagation_factory(), workers=workers,
                           reception_floor_dbm=reception_floor_dbm,
                           manual=manual)
    if plan.lookahead and not propagation_delay:
        raise ConfigurationError(
            "coupled shards require propagation_delay=True: the "
            "conservative lookahead IS the minimum cross-shard "
            "propagation delay, and without delay modelling boundary "
            "arrivals would be instantaneous (no positive lookahead "
            "exists)")
    shard_count = len(plan.shards)
    incoming = [plan.incoming(index) for index in range(shard_count)]
    if lookahead_override is not None:
        incoming = [{src: lookahead_override for src in sources}
                    for sources in incoming]
    context = multiprocessing.get_context("fork")
    channels: List[Channel] = []
    processes = []
    log = ArrivalLog({
        "seed": seed, "horizon": repr(horizon), "workers": workers,
        # ``exact`` names a medium option since removed; it stays in
        # the header so every arrival log keeps its bytes and SHA-1.
        "shard_count": shard_count, "exact": True,
        "partition": plan.describe(),
    })
    coord = MetricsRegistry(enabled=telemetry)
    coordinator_start = perf_counter()
    board = _Board(shard_count)
    loop = (plan, incoming, horizon, coord, board)
    hosted = _place(plan)
    # One host runs the rounds itself: no message per round at all.
    one_host = len(hosted) == 1
    try:
        for shards in hosted:
            parent_end, child_end = channel_pair()
            channels.append(parent_end)
            specs = [(shard, plan.shards[shard],
                      [plan.index_of(cell.name)
                       for cell in plan.shards[shard]],
                      plan.export_channels[shard]) for shard in shards]
            process = context.Process(
                target=_worker_main,
                args=(child_end, list(channels), specs,
                      loop if one_host else None, seed,
                      propagation_factory, reception_floor_dbm,
                      propagation_delay, check_invariants,
                      telemetry, telemetry_interval),
                daemon=True)
            try:
                process.start()
            finally:
                child_end.close()
            processes.append(process)
        links = [(channel, process, shards, board) for channel, process,
                 shards in zip(channels, processes, hosted)]
        if one_host:
            (link,) = links
            message = _recv(*link)
            while message[0] == "log":
                log.extend(message[1])
                _send(link[0], ("ack",))
                message = _recv(*link)
            _, tail, rounds, boundary_records, clocks, coord, stats = message
            log.extend(tail)
        else:
            for link in links:
                _recv(*link)  # "ready"
            host = {shard: index for index, shards in enumerate(hosted)
                    for shard in shards}

            def advance(requests: List[Tuple]) -> List[Tuple]:
                # One message per process per direction, however many
                # of its shards advance.
                batches: Dict[int, List[Tuple]] = {}
                for request in requests:
                    batches.setdefault(host[request[0]], []).append(request)
                for worker, batch in batches.items():
                    _send(channels[worker], ("advance", batch))
                return sorted(fence for worker in batches
                              for fence in _recv(*links[worker])[1])

            rounds, boundary_records, clocks = _run_rounds(
                *loop, advance, log)
            for channel in channels:
                _send(channel, ("finish",))
            stats = [final for link in links for final in _recv(*link)[1]]
        finals = {final[0]: final for final in stats}
        merged: Dict[str, Dict] = {}
        events = 0
        shard_streams: List[Optional[Tuple[str, str]]] = []
        for shard in range(shard_count):
            _, cell_stats, executed, shard_telemetry = finals[shard]
            events += executed
            log.final(shard, clocks[shard], executed)
            merged.update(cell_stats)
            shard_streams.append(shard_telemetry)
        for process in processes:
            process.join(timeout=30)
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        for channel in channels:
            channel.close()
        board.close()

    arrival_log = log.to_jsonl()
    result = {
        "cells": {name: merged[name] for name in sorted(merged)},
        "events": events,
        "shards": shard_count,
        "rounds": rounds,
        "boundary_records": boundary_records,
        "arrival_log": arrival_log,
        "arrival_log_sha1": hashlib.sha1(arrival_log.encode()).hexdigest(),
        "plan": plan,
    }
    if telemetry:
        coord.gauge("parallel", "coordinator_wall_seconds",
                    wall=True).set(perf_counter() - coordinator_start)
        result["telemetry_jsonl"] = _merge_telemetry(
            "sim", to_jsonl(coord, stream="sim"),
            [streams[0] for streams in shard_streams])
        result["telemetry_wall_jsonl"] = _merge_telemetry(
            "wall", to_jsonl(coord, stream="wall"),
            [streams[1] for streams in shard_streams])
    return result
