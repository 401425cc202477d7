"""Declarative fault schedules and the chaos monkey.

Two ways to decide *when* faults happen:

* :class:`FaultSchedule` — a declarative timeline ("crash the AP at
  t=1.0 for 300 ms, fade node 4 at t=1.2") installed onto the kernel
  heap up front.  Entries fire in insertion order at equal times (the
  kernel's monotone sequence tie-break), every firing is appended to a
  :class:`FaultLog`, and the whole run is bit-reproducible.
* :class:`ChaosMonkey` — randomized crash/restart storms sampled from a
  dedicated seeded RNG stream (``chaos.<name>``), so a storm is as
  reproducible as a timeline while still exploring the fault space.

The log is the subsystem's ground truth: each
:class:`FaultRecord` serializes with ``repr``-exact floats and sorted
keys (the same recipe as the monitor-mode capture log), so two seeded
runs can be byte-compared end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.engine import Simulator, Timer
from ..core.errors import ConfigurationError
from ..core.stats import Counter


@dataclass(frozen=True)
class FaultRecord:
    """One fault event as it fired."""

    time: float
    action: str      # "crash", "restart", "fade", "fade-clear", ...
    target: str      # component name / address the fault hit
    detail: str = ""

    def to_json(self) -> str:
        # repr() round-trips floats exactly; sorted keys make the
        # serialization canonical so traces can be byte-compared.
        return json.dumps({
            "time": repr(self.time),
            "action": self.action,
            "target": self.target,
            "detail": self.detail,
        }, sort_keys=True, separators=(",", ":"))


class FaultLog:
    """Append-only record of every fault that fired."""

    def __init__(self) -> None:
        self.records: List[FaultRecord] = []

    def append(self, record: FaultRecord) -> None:
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "\n".join(record.to_json() for record in self.records)

    def downtime_spans(self, horizon: Optional[float] = None
                       ) -> List[tuple]:
        """Pair crash/restart records into per-target downtime windows.

        Returns ``(target, start, end)`` tuples: one per crash/restart
        pair (in restart order), then one per target still down at the
        end of the log (in crash order) with ``end=None``.  A repeated
        crash of an already-down target extends nothing — the first
        crash opened the window.  ``horizon`` is accepted for symmetry
        with the analysis helpers but unrestored windows stay open
        (``end=None``) so consumers can distinguish "restored at t" from
        "still down at the horizon"; pass the figure on to
        :func:`repro.telemetry.probes.record_fault_spans` to close them.
        """
        del horizon  # see docstring: open windows stay open here
        open_at: Dict[str, float] = {}
        spans: List[tuple] = []
        for record in self.records:
            if record.action == "crash":
                if record.target not in open_at:
                    open_at[record.target] = record.time
            elif record.action == "restart":
                start = open_at.pop(record.target, None)
                if start is not None:
                    spans.append((record.target, start, record.time))
        for target, start in open_at.items():
            spans.append((target, start, None))
        return spans

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _target_name(target) -> str:
    """Best human-readable handle for a fault target."""
    name = getattr(target, "name", None)
    if name is not None:
        return str(name)
    address = getattr(target, "address", None)
    if address is not None:
        return str(address)
    return repr(target)


class FaultSchedule:
    """A declarative, seeded-deterministic fault timeline.

    Build the schedule with the verb methods (:meth:`crash`,
    :meth:`fade`, ...), then :meth:`install` it once before
    ``sim.run``.  Targets are duck-typed: anything with ``crash()`` /
    ``restart()`` works (stations, APs, mesh nodes), so one schedule
    can storm a heterogeneous deployment.
    """

    def __init__(self, sim: Simulator, name: str = "faults",
                 log: Optional[FaultLog] = None):
        self.sim = sim
        self.name = name
        self.log = log if log is not None else FaultLog()
        self.counters = Counter()
        self._entries: List[tuple] = []   # (time, action, target, detail, fn)
        self._installed = False

    # --- building ----------------------------------------------------------

    def at(self, time: float, fn: Callable[[], None], action: str,
           target: str, detail: str = "") -> "FaultSchedule":
        """Schedule an arbitrary fault callable (escape hatch)."""
        if time < 0:
            raise ConfigurationError(f"fault time must be >= 0: {time}")
        self._entries.append((time, action, target, detail, fn))
        return self

    def crash(self, target, at: float,
              down_for: Optional[float] = None) -> "FaultSchedule":
        """Crash ``target`` at ``at``; auto-restart after ``down_for``."""
        name = _target_name(target)
        self.at(at, target.crash, "crash", name,
                "" if down_for is None else f"down_for={down_for!r}")
        if down_for is not None:
            if down_for <= 0:
                raise ConfigurationError(
                    f"down_for must be > 0: {down_for}")
            self.at(at + down_for, target.restart, "restart", name)
        return self

    def restart(self, target, at: float) -> "FaultSchedule":
        """Restart a previously crashed ``target`` at ``at``."""
        self.at(at, target.restart, "restart", _target_name(target))
        return self

    def fade(self, fader, position, loss_db: float, at: float,
             duration: Optional[float] = None,
             target: str = "") -> "FaultSchedule":
        """Fade all links at ``position`` by ``loss_db`` starting at
        ``at``; auto-clear after ``duration``."""
        label = target or repr(position)
        self.at(at, lambda: fader.fade(position, loss_db),
                "fade", label, f"loss_db={loss_db!r}")
        if duration is not None:
            if duration <= 0:
                raise ConfigurationError(
                    f"duration must be > 0: {duration}")
            self.at(at + duration, lambda: fader.clear(position),
                    "fade-clear", label)
        return self

    def queue_pressure(self, mac, at: float, fill: float = 1.0,
                       payload_bytes: int = 200,
                       destination=None) -> "FaultSchedule":
        """Flood ``mac``'s interface queue at ``at``.

        Pick ``destination`` deliberately: junk toward an unreachable
        unicast address drains at retry-limit speed (the queue stays
        wedged for seconds); the broadcast address drains at one
        unacknowledged transmission per frame.
        """
        from .injectors import inject_queue_pressure
        self.at(at,
                lambda: inject_queue_pressure(
                    mac, fill=fill, payload_bytes=payload_bytes,
                    destination=destination),
                "queue-pressure", _target_name(mac), f"fill={fill!r}")
        return self

    # --- arming ------------------------------------------------------------

    def install(self) -> "FaultSchedule":
        """Put every entry on the kernel heap (once).

        Entries are scheduled in insertion order, so equal-time faults
        fire in the order the schedule was written — the kernel's
        monotone sequence tie-break guarantees it.
        """
        if self._installed:
            raise ConfigurationError(
                f"fault schedule {self.name!r} already installed")
        self._installed = True
        for time, action, target, detail, fn in self._entries:
            self.sim.schedule_at(time, self._fire, action, target, detail, fn)
        return self

    def _fire(self, action: str, target: str, detail: str,
              fn: Callable[[], None]) -> None:
        self.counters.incr(action.replace("-", "_"))
        self.log.append(FaultRecord(self.sim.now, action, target, detail))
        fn()

    def __len__(self) -> int:
        return len(self._entries)


class ChaosMonkey:
    """Randomized crash/restart storms from a dedicated seeded stream.

    Strike times are exponentially distributed with mean
    ``mean_interval``; each strike picks a uniform target and crashes
    it for an exponential downtime with mean ``mean_downtime``.  A
    target already down when struck is skipped — but the RNG draws
    happen **unconditionally and in a fixed order** (target, downtime,
    next interval) so the stream stays aligned no matter which strikes
    land.  All randomness comes from the ``chaos.<name>`` stream: the
    storm never perturbs MAC, PHY, or routing jitter streams.
    """

    def __init__(self, sim: Simulator, targets: Sequence,
                 mean_interval: float = 0.5, mean_downtime: float = 0.3,
                 name: str = "monkey", log: Optional[FaultLog] = None,
                 max_faults: Optional[int] = None):
        if not targets:
            raise ConfigurationError("chaos monkey needs at least one target")
        if mean_interval <= 0 or mean_downtime <= 0:
            raise ConfigurationError(
                "mean_interval and mean_downtime must be > 0")
        self.sim = sim
        self.targets = list(targets)
        self.mean_interval = mean_interval
        self.mean_downtime = mean_downtime
        self.name = name
        self.log = log if log is not None else FaultLog()
        self.max_faults = max_faults
        self.counters = Counter()
        self._rng = sim.rng.stream(f"chaos.{name}")
        self._timer = Timer(sim, self._strike)
        self._down: set = set()
        self._running = False

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosMonkey":
        """Begin striking (first strike after one mean interval draw)."""
        self._running = True
        self._timer.schedule(self._rng.expovariate(1.0 / self.mean_interval))
        return self

    def stop(self) -> None:
        """Stop striking; targets already down stay down until their
        scheduled restarts fire (or :meth:`restore_all`)."""
        self._running = False
        self._timer.cancel()

    def restore_all(self) -> None:
        """Immediately restart every target the monkey still holds down
        (lowest index first, for determinism)."""
        for index in sorted(self._down):
            self._restore(index)

    @property
    def faults_injected(self) -> int:
        return self.counters.get("strikes")

    # --- internals ---------------------------------------------------------

    def _strike(self) -> None:
        if not self._running:
            return
        if self.max_faults is not None and \
                self.counters.get("strikes") >= self.max_faults:
            self._running = False
            return
        # Fixed draw order keeps the stream aligned across skips.
        index = self._rng.randrange(len(self.targets))
        downtime = self._rng.expovariate(1.0 / self.mean_downtime)
        if index in self._down:
            self.counters.incr("skipped")
        else:
            self._down.add(index)
            self.counters.incr("strikes")
            target = self.targets[index]
            self.log.append(FaultRecord(
                self.sim.now, "crash", _target_name(target),
                f"monkey={self.name} down_for={downtime!r}"))
            target.crash()
            self.sim.schedule(downtime, self._restore, index)
        self._timer.schedule(self._rng.expovariate(1.0 / self.mean_interval))

    def _restore(self, index: int) -> None:
        if index not in self._down:
            return   # already restored by restore_all()
        self._down.discard(index)
        self.counters.incr("restores")
        target = self.targets[index]
        self.log.append(FaultRecord(
            self.sim.now, "restart", _target_name(target),
            f"monkey={self.name}"))
        target.restart()
