"""Runtime invariant checking for strict-mode simulation runs.

The simulator's correctness rests on a handful of properties that no
single unit test can pin down across every scenario: the kernel clock
never runs backward, NAV reservations never exceed the longest legal
frame duration, the batched backoff countdown lands on exactly the
instant the per-slot reference would, converged routing tables are
loop-free, and — at quiescence — the ``pending_events`` counter agrees
with a literal census of the heap.

:class:`InvariantChecker` sweeps all of them periodically from inside
the event loop.  It is **opt-in** (strict mode): the checks cost real
time, and a default-off checker guarantees that enabling it can never
perturb a pinned run's event stream, because it only *reads* simulation
state and schedules its own independent periodic event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.engine import PeriodicTask, Simulator, live_entries
from ..core.errors import InvariantViolation
from ..mac.dcf import DcfMac

#: Longest NAV a legal frame can set: the Duration/ID field is 15 bits
#: of microseconds (0x0000-0x7FFF are durations; values through 0xFFFF
#: exist but >= 0x8000 are PS-Poll AIDs / reserved).  We allow the full
#: 16-bit ceiling — anything beyond it means corrupted duration math,
#: not an aggressive-but-legal reservation.
NAV_MAX_LEGAL = 0xFFFF * 1e-6

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    time: float
    check: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return (f"[t={self.time:.9f}] {self.check} violated by "
                f"{self.subject}: {self.detail}")


class InvariantChecker:
    """Periodic structural audit of live simulation state.

    Register what to watch (:meth:`watch_medium` auto-discovers every
    DCF MAC attached to the medium's radios — including ones attached
    *after* registration, since discovery reruns each tick), then
    :meth:`install` to begin sweeping every ``interval`` seconds of
    simulated time.  With ``strict=True`` (the default) the first
    violation raises :class:`~repro.core.errors.InvariantViolation`,
    crashing the run at the instant the state went bad; with
    ``strict=False`` violations accumulate in :attr:`violations` for
    post-run inspection.
    """

    def __init__(self, sim: Simulator, interval: float = 0.05,
                 strict: bool = True, route_settle: float = 0.3,
                 shard: Optional[int] = None):
        self.sim = sim
        self.interval = interval
        self.strict = strict
        #: Per-shard mode (sharded executor workers): stamps every
        #: violation subject with the shard index so a strict failure
        #: deep inside a worker process names its shard when the
        #: coordinator surfaces it.  The kernel/MAC/PHY checks are
        #: unchanged — each worker owns a full kernel, so clock and
        #: heap monotonicity mean exactly what they mean single-process.
        #: The one *cross*-shard invariant (boundary records merge in
        #: pinned ``(time, shard, seq)`` order) cannot be seen from any
        #: worker; the round loop audits it on every sharded run
        #: (:func:`repro.parallel.executor.check_merge_order`).
        self.shard = shard
        #: A routing table only has to be loop-free once it is
        #: *quiescent*: transient loops during convergence are expected
        #: distance-vector behaviour.  A mesh counts as quiescent when
        #: no watched node updated any entry within `route_settle`.
        self.route_settle = route_settle
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._media: List = []
        self._macs: List[DcfMac] = []
        self._meshes: List[Sequence] = []
        self._task: Optional[PeriodicTask] = None
        self._last_now = sim.now

    # --- registration ------------------------------------------------------

    def watch_medium(self, medium) -> "InvariantChecker":
        """Audit every DCF MAC riding a radio on ``medium``."""
        self._media.append(medium)
        return self

    def watch_mac(self, mac: DcfMac) -> "InvariantChecker":
        """Audit one MAC explicitly (no medium needed)."""
        self._macs.append(mac)
        return self

    def watch_mesh(self, nodes: Sequence) -> "InvariantChecker":
        """Audit a set of mesh nodes for routing loops once their
        tables are quiescent."""
        self._meshes.append(list(nodes))
        return self

    def install(self) -> "InvariantChecker":
        """Begin periodic sweeps (first sweep one interval from now)."""
        if self._task is None:
            self._task = PeriodicTask(self.sim, self.interval,
                                      self.check_now, offset=self.interval)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # --- checking ----------------------------------------------------------

    def _fail(self, check: str, subject: str, detail: str) -> None:
        if self.shard is not None:
            subject = f"shard{self.shard}:{subject}"
        violation = Violation(self.sim.now, check, subject, detail)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(str(violation))

    def check_now(self) -> None:
        """Run every registered check once, immediately."""
        self.checks_run += 1
        self._check_kernel()
        for mac in self._iter_macs():
            self._check_mac(mac)
        for nodes in self._meshes:
            self._check_loop_free(nodes)

    def _iter_macs(self):
        seen = set()
        for mac in self._macs:
            if id(mac) not in seen:
                seen.add(id(mac))
                yield mac
        for medium in self._media:
            for radio in medium._radios:
                mac = getattr(radio.on_tx_end, "__self__", None)
                if isinstance(mac, DcfMac) and id(mac) not in seen:
                    seen.add(id(mac))
                    yield mac

    # Kernel: the clock is monotone and the heap never holds the past.
    def _check_kernel(self) -> None:
        now = self.sim.now
        if now < self._last_now:
            self._fail("clock-monotonic", "kernel",
                       f"now={now!r} < previous {self._last_now!r}")
        self._last_now = now
        heap = self.sim._heap
        if heap and heap[0][0] + _EPS < now:
            self._fail("heap-monotonic", "kernel",
                       f"heap head at {heap[0][0]!r} behind now={now!r}")

    # Kernel bookkeeping: scheduled - executed - cancelled must equal a
    # literal census of live heap entries, between runs.
    def check_counter_parity(self) -> None:
        """Audit ``pending_events`` against the live heap, at quiescence.

        ``Simulator.pending_events`` is derived bookkeeping
        (``scheduled - executed - cancelled``); the heap is ground
        truth (:func:`~repro.core.engine.live_entries`).  Any
        disagreement means a kernel implementation (the pure-Python
        reference or the compiled ``repro.core._ckernel``) dropped or
        double-counted an event — exactly the drift a kernel swap could
        otherwise leak silently.

        Only meaningful while no :meth:`Simulator.run` is in flight:
        every run loop holds the executed counter in a local until it
        exits, so mid-run the stored counter is legitimately stale.
        Call it after ``run()`` returns (e.g. from a test or a builder's
        epilogue), not from the periodic :meth:`check_now` sweep.
        """
        self.checks_run += 1
        sim = self.sim
        live = live_entries(sim)
        pending = sim.pending_events
        if pending != live:
            self._fail(
                "counter-parity", "kernel",
                f"pending_events={pending} (scheduled={sim._scheduled} "
                f"- executed={sim._events_executed} - cancelled="
                f"{sim._cancelled_events}) but {live} live heap "
                f"entries of {len(sim._heap)}")

    # MAC: NAV within legal bounds; batched countdown equals the
    # per-slot reference left-fold.
    def _check_mac(self, mac: DcfMac) -> None:
        remaining_nav = mac.nav.until - self.sim.now
        if remaining_nav > NAV_MAX_LEGAL + _EPS:
            self._fail("nav-legal-duration", str(mac.address),
                       f"NAV holds {remaining_nav!r}s, legal max "
                       f"{NAV_MAX_LEGAL!r}s")
        countdown = mac._countdown
        if countdown._armed and mac._countdown_remaining > 0:
            # KEEP IN SYNC with DcfMac._ifs_expired: the reference
            # expiry is the same left-fold (anchor + slot + slot ...)
            # the per-slot countdown would have produced.  An
            # independent check, not a call into the MAC; held by
            # `tests/faults/test_invariants.py`.
            expiry = mac._countdown_anchor
            slot = mac._slot_time
            for _ in range(mac._countdown_remaining):
                expiry += slot
            if expiry != countdown._time:
                self._fail(
                    "backoff-left-fold", str(mac.address),
                    f"batched expiry {countdown._time!r} != per-slot "
                    f"reference {expiry!r} (anchor="
                    f"{mac._countdown_anchor!r}, "
                    f"remaining={mac._countdown_remaining})")

    # Routing: once quiescent, following next hops from any node toward
    # any destination must terminate (no forwarding loops).
    def _check_loop_free(self, nodes) -> None:
        now = self.sim.now
        by_address = {node.address: node for node in nodes}
        for node in nodes:
            routes = node.protocol.routes()
            if any(now - entry.updated_at < self.route_settle
                   for entry in routes.values()):
                return   # still converging: transient loops are legal
        for node in nodes:
            for destination in node.protocol.routes():
                hops = 0
                current = node
                while current is not None and current.address != destination:
                    nxt = current.protocol.next_hop(destination)
                    if nxt is None:
                        break   # route withdrawn/broken: fine
                    hops += 1
                    if hops > len(nodes):
                        self._fail(
                            "routing-loop-free",
                            f"{node.address}->{destination}",
                            f"next-hop chain exceeds {len(nodes)} hops")
                        break
                    current = by_address.get(nxt)
