"""Fault injectors: link degradation and queue pressure.

Crash/restart injection lives on the components themselves
(``Station.crash``, ``AccessPoint.crash``, ``MeshNode.crash``,
``Radio.power_off`` ...) because tearing a component down correctly
needs its internals; this module holds the injectors that act *between*
components:

* :class:`DegradedPropagation` / :class:`LinkFader` — seeded attenuation
  fades layered over any propagation model, wired into the medium's
  LinkCache/plan invalidation so a fade takes effect on the very next
  frame,
* :func:`inject_queue_pressure` — flood a MAC's interface queue with
  junk MSDUs (a runaway upper layer), exercising the drop-tail and
  priority-enqueue machinery under pressure.

Everything here is deterministic: the injectors draw no randomness of
their own — timing and magnitude come from the caller (typically a
:class:`~repro.faults.schedule.FaultSchedule` or
:class:`~repro.faults.schedule.ChaosMonkey`, which own the seeded
streams).
"""

from __future__ import annotations

from typing import Dict

from ..core.stats import Counter
from ..core.topology import Position
from ..phy.channel import Medium
from ..phy.propagation import PropagationModel


class DegradedPropagation(PropagationModel):
    """Wrap a base model with switchable extra attenuation.

    Fades attach to :class:`~repro.core.topology.Position` values: any
    link whose transmitter *or* receiver sits at a faded position loses
    the configured dB on top of the base model (both ends faded: the
    losses add).  A global fade applies to every link.  With no fades
    active, it returns the base model's floats **unchanged**
    (not multiplied by 1.0), so wrapping a medium costs nothing and
    stays bit-identical until the first fade lands.

    Callers must invalidate the medium's links after every change —
    :class:`LinkFader` does this automatically.
    """

    def __init__(self, base: PropagationModel):
        self.base = base
        self._fades: Dict[Position, float] = {}
        self._global_db = 0.0

    def _extra_db(self, tx: Position, rx: Position) -> float:
        extra = self._global_db
        fades = self._fades
        if fades:
            extra += fades.get(tx, 0.0) + fades.get(rx, 0.0)
        return extra

    def path_loss_db(self, tx: Position, rx: Position) -> float:
        return self.base.path_loss_db(tx, rx) + self._extra_db(tx, rx)

    def received_power_watts(self, tx_power_watts: float,
                             tx: Position, rx: Position) -> float:
        watts = self.base.received_power_watts(tx_power_watts, tx, rx)
        extra = self._extra_db(tx, rx)
        return watts if extra == 0.0 else watts * 10.0 ** (-0.1 * extra)


class LinkFader:
    """Timed attenuation fades on a medium.

    Wraps the medium's propagation model in
    :class:`DegradedPropagation` on first use (idempotent) and pairs
    every fade change with the LinkCache/plan invalidation that makes
    it visible to the compiled fan-out — without it, senders would keep
    transmitting against pre-fade link budgets.
    """

    def __init__(self, medium: Medium):
        if not isinstance(medium.propagation, DegradedPropagation):
            medium.propagation = DegradedPropagation(medium.propagation)
        self.medium = medium
        self.model: DegradedPropagation = medium.propagation
        self.counters = Counter()

    def fade(self, position: Position, loss_db: float) -> None:
        """Add ``loss_db`` of attenuation to every link touching
        ``position`` (replaces any existing fade there)."""
        self.model._fades[position] = loss_db
        self.medium.invalidate_links()
        self.counters.incr("fades")

    def clear(self, position: Position) -> None:
        """Remove the fade at ``position`` (no-op if none)."""
        if self.model._fades.pop(position, None) is not None:
            self.medium.invalidate_links()
            self.counters.incr("fades_cleared")

    def fade_all(self, loss_db: float) -> None:
        """Apply a global fade to every link (0.0 clears it)."""
        self.model._global_db = loss_db
        self.medium.invalidate_links()
        self.counters.incr("global_fades")

    def clear_all(self) -> None:
        """Remove every fade, global and positional."""
        self.model._fades.clear()
        self.model._global_db = 0.0
        self.medium.invalidate_links()
        self.counters.incr("fades_cleared_all")

    @property
    def active_fades(self) -> int:
        return len(self.model._fades) + (1 if self.model._global_db else 0)


def inject_queue_pressure(mac, fill: float = 1.0,
                          payload_bytes: int = 200,
                          destination=None) -> int:
    """Flood a MAC's interface queue with junk MSDUs.

    Models a runaway upper layer: the queue is filled to ``fill`` of
    its capacity with filler data frames toward ``destination``
    (default: the MAC's BSSID, i.e. the AP / the IBSS).  Returns how
    many MSDUs were accepted.  The frames are real — they contend,
    collide and get ACKed — so the victim's latency and drop behaviour
    under pressure is exercised end to end, not just the counter.
    """
    capacity = mac.queue.capacity
    target = min(int(capacity * fill), capacity)
    dest = destination if destination is not None else mac.bssid
    payload = bytes(payload_bytes)
    added = 0
    while len(mac.queue) < target:
        if not mac.send(dest, payload):
            break
        added += 1
    return added
