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
  local co-channel radios as **energy-only ghost transmissions** — the
  receive power is computed through the same
  ``received_power_watts`` call the single-process medium uses (so the
  floats are bit-identical), but the arrival rides the
  :data:`~repro.phy.channel.ENERGY_ONLY` mode: it drives CCA, capture
  and SINR accounting exactly like the real frame's energy would, and
  no local radio ever locks onto it.

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
from typing import Any, FrozenSet, List, NamedTuple, Optional

from ..core.errors import InvariantViolation
from ..core.topology import Position
from ..core.units import SPEED_OF_LIGHT
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
    accepts (``name``/``position``/``_position``/``_channel_id``); it
    exists so injected :class:`Transmission` objects carry an honest
    sender identity for tracing without the remote Radio being present
    in this process.
    """

    __slots__ = ("name", "_position", "_channel_id")

    def __init__(self, name: str, position: Position, channel_id: int):
        self.name = name
        self._position = position
        self._channel_id = channel_id

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

        Mirrors the uncached :meth:`Medium.transmit` loop — fresh
        ``received_power_watts`` per receiver in exact mode (the same
        pure function the remote shard's LinkCache memoizes, so the
        receive powers are bit-identical to the single-process run),
        ``link_gain`` in fast mode, floor cull, and the exact
        ``start + delay`` / ``start + (delay + duration)``
        parenthesization the in-process fan-out uses.  Injection does
        not go through compiled plans: boundary traffic is sparse by
        construction, and ghost senders are transient objects.
        """
        sim = self.sim
        now = sim._now
        start = record.start_time
        ghost = _GhostSender(record.sender,
                             Position(record.x, record.y, record.z),
                             record.channel)
        transmission = Transmission(ghost, None, 0, ENERGY_ONLY,
                                    record.power_watts, start,
                                    record.duration)
        active = self._active.get(record.channel)
        if active is None:
            active = self._active[record.channel] = []
        active.append(transmission)
        floor = self.reception_floor_watts
        propagation = self.propagation
        model_delay = self.propagation_delay
        exact = self.exact
        tx_pos = ghost._position
        push = sim._push
        next_seq = sim._next_seq
        duration = record.duration
        power = record.power_watts
        scheduled = 0
        for receiver, begins, ends in self._channel_members(record.channel):
            rx_pos = receiver.position
            if exact:
                rx_power = propagation.received_power_watts(power, tx_pos,
                                                            rx_pos)
            else:
                rx_power = power * propagation.link_gain(tx_pos, rx_pos)
            if rx_power < floor:
                continue
            delay = tx_pos.distance_to(rx_pos) / SPEED_OF_LIGHT \
                if model_delay else 0.0
            arrival = start + delay
            if arrival < now:
                # A conservative-lookahead executor must never deliver
                # into the past; this firing means the synchronization
                # bound was wrong (or a lookahead override lied), so it
                # is always fatal, not an opt-in invariant.
                raise InvariantViolation(
                    f"shard {self.shard}: boundary arrival from "
                    f"{record.sender!r} at t={arrival!r} is behind the "
                    f"local clock t={now!r} (lookahead violation)")
            push((arrival, next_seq(), None, begins,
                  (transmission, rx_power)))
            push((start + (delay + duration), next_seq(), None, ends,
                  (transmission,)))
            scheduled += 2
        sim._scheduled += scheduled
        self.boundary_injected += 1
        return transmission
