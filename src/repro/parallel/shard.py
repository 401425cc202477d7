"""Shard-local medium: boundary-arrival export and injection.

Each worker process owns one :class:`ShardMedium` — a normal
:class:`~repro.phy.channel.Medium` for everything *inside* the shard,
plus two extra duties at the shard boundary:

* **Export**: every transmission on a channel some *other* shard can
  hear is appended to the outbox as a flat :class:`BoundaryRecord`
  (start time, sender geometry, channel, power, duration).  The
  coordinator drains outboxes at each fence and routes the records to
  the coupled destination shards.
* **Inject**: records arriving from other shards are fanned out to the
  local co-channel radios as **energy-only ghost transmissions**.  A
  ghost is a planned transmission like any local one: one
  :class:`_GhostSender` per remote ``(sender, channel)``, whose fan-out
  plan :meth:`Medium._compile_plan` builds through the same
  ``received_power_watts`` calls, floor cull and propagation delay the
  single-process medium uses (so the floats are bit-identical), and
  every invalidation hook drops.  The arrival rides
  the :data:`~repro.phy.channel.ENERGY_ONLY` mode: it drives CCA,
  capture and SINR accounting exactly like the real frame's energy
  would, and no local radio ever locks onto it.

The energy-faithful (not frame-faithful) boundary is the executor's
declared contract: when cross-shard power stays below every receiver's
preamble-detect floor — which a sane partition guarantees by
construction — a ghost is *provably* indistinguishable from the real
frame (neither can be locked onto; all remaining physics is power
arithmetic), so sharded stats match single-process bit-for-bit.
Partitions that split strongly-coupled cells fall back to the
declared-tolerance regime (see README, "Sharded execution").
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

from ..core.errors import InvariantViolation
from ..core.topology import Position
from ..phy.channel import ENERGY_ONLY, Medium, Transmission


class BoundaryRecord(NamedTuple):
    """One cross-shard transmission, flat and picklable.

    The tuple order *is* the canonical merge key prefix:
    ``(start_time, shard, seq)`` pins the coordinator's merge order and
    the arrival-log byte layout.  ``seq`` is a per-shard export counter,
    so two runs of the same partition export identical streams.
    """

    start_time: float
    shard: int
    seq: int
    sender: str
    x: float
    y: float
    z: float
    channel: int
    power_watts: float
    duration: float


class _GhostSender:
    """Stand-in for a remote transmitter during boundary injection.

    Quacks like the transmit-only senders the energy path already
    accepts (``name``/``position``/``_position``/``_channel_id``), so it
    keys a compiled fan-out plan and :class:`LinkCache` entries like
    any sender, and injected :class:`Transmission` objects carry an
    honest sender identity without the remote Radio being present in
    this process.  A move *replaces* ``_position`` (never mutates it):
    the plan's and the link cache's identity checks then recompile.
    ``earliest`` is the smallest propagation delay of the plan it was
    last compiled with.
    """

    __slots__ = ("name", "_position", "_channel_id", "earliest")

    def __init__(self, name: str, position: Position, channel_id: int):
        self.name = name
        self._position = position
        self._channel_id = channel_id
        self.earliest = math.inf

    @property
    def position(self) -> Position:
        return self._position


class ShardMedium(Medium):
    """A medium that exports and injects boundary arrivals.

    Parameters beyond :class:`~repro.phy.channel.Medium`'s:

    shard:
        This shard's index (stamped into every exported record).
    export_channels:
        Channels whose transmissions must be exported — the partition
        plan's per-shard coupling surface.  Empty set = fully decoupled
        shard: ``transmit`` stays byte-for-byte the base implementation
        plus one set lookup.
    """

    def __init__(self, *args, shard: int = 0,
                 export_channels: FrozenSet[int] = frozenset(), **kwargs):
        super().__init__(*args, **kwargs)
        self.shard = shard
        self.export_channels = frozenset(export_channels)
        self.outbox: List[BoundaryRecord] = []
        self._export_seq = itertools.count()
        self._ghosts: Dict[Tuple[str, int], _GhostSender] = {}
        self.boundary_injected = 0

    def transmit(self, sender, payload, size_bits, mode, duration,
                 power_watts) -> Transmission:
        transmission = super().transmit(sender, payload, size_bits, mode,
                                        duration, power_watts)
        if sender._channel_id in self.export_channels:
            pos = sender.position
            self.outbox.append(BoundaryRecord(
                transmission.start_time, self.shard,
                next(self._export_seq), sender.name,
                pos.x, pos.y, pos.z, sender._channel_id,
                power_watts, duration))
        return transmission

    def drain_outbox(self) -> List[BoundaryRecord]:
        """Hand the pending exports to the coordinator (fence time)."""
        pending, self.outbox = self.outbox, []
        return pending

    def inject_boundary(self, record: BoundaryRecord) -> Transmission:
        """Fan a remote transmission out to the local co-channel radios.

        The record's ghost sender transmits through its compiled plan:
        a hit when neither it nor any local radio moved, retuned,
        attached or detached and its power is unchanged, else one
        :meth:`Medium._compile_plan` (``plan_hits`` / ``plan_misses``
        and ``links`` count ghosts too).  The plan's entries are pushed
        by the kernel's ``fan_out`` from the record's start time — the
        exact ``start + delay`` / ``start + (delay + duration)``
        parenthesization of the in-process fan-out.
        """
        start, _shard, _seq, name, x, y, z, channel, power, duration \
            = record
        ghost = self._ghosts.get((name, channel))
        if ghost is None:
            ghost = self._ghosts[name, channel] = _GhostSender(
                name, Position(x, y, z), channel)
        else:
            position = ghost._position
            if position.x != x or position.y != y or position.z != z:
                ghost._position = Position(x, y, z)
        plan = self._plans.get(ghost)
        if plan is not None and plan[0] is ghost._position \
                and plan[1] == power:
            self.plan_hits += 1
        else:
            plan = self._compile_plan(ghost, channel, power)
            self.plan_misses += 1
            ghost.earliest = min((entry[3] for entry in plan[2]),
                                 default=math.inf)
        sim = self.sim
        # Addition is monotone, so no arrival precedes the earliest one.
        if start + ghost.earliest < sim._now:
            # A conservative-lookahead executor must never deliver into
            # the past; this firing means the synchronization bound was
            # wrong (or a lookahead override lied), so it is always
            # fatal, not an opt-in invariant.
            raise InvariantViolation(
                f"shard {self.shard}: boundary arrival from {name!r} at "
                f"t={start + ghost.earliest!r} is behind the local clock "
                f"t={sim._now!r} (lookahead violation)")
        transmission = Transmission(ghost, None, 0, ENERGY_ONLY, power,
                                    start, duration)
        active = self._active.get(channel)
        if active is None:
            active = self._active[channel] = []
        active.append(transmission)
        sim._fan_out(sim, plan[2], transmission, duration, start)
        self.boundary_injected += 1
        return transmission
