"""The discrete-event simulation kernel.

The kernel is a deterministic event-heap executor:

* :class:`Simulator` owns the clock, the pending-event heap, the RNG
  registry (see :mod:`repro.core.rng`) and the trace log.
* :class:`EventHandle` is returned by :meth:`Simulator.schedule` and
  supports O(1) cancellation (lazy deletion from the heap).
* Ties in time are broken by a monotonically increasing sequence number,
  so two events scheduled for the same instant always fire in the order
  they were scheduled — this is what makes runs bit-reproducible.

Protocol code in this library is written in *callback style*: components
schedule plain callables.  That keeps the kernel tiny, easy to reason
about, and fast enough to run thousands of stations on a laptop.

Hot-path notes: heap entries are ``(time, seq, ...)`` records rather
than bare handles, so ordering never calls ``EventHandle.__lt__`` (the
single biggest cost in large runs);
:attr:`Simulator.pending_events` is a counter maintained by
``schedule``/``cancel``/``run`` instead of an O(N) heap scan; and
fire-and-forget callers (the medium's per-receiver arrival fan-out —
the most-scheduled events in any run) can use
:meth:`Simulator.schedule_fast_at` to skip the
:class:`EventHandle` allocation entirely.  Components that arm and
re-arm the *same* deadline over and over (DIFS waits, the batched
backoff countdown, the NAV, reception completion) use a reusable
:class:`Timer`, which replaces the per-arm :class:`EventHandle`
allocation with a version check on a pre-allocated object.

Heap entries are therefore one of three shapes — ``(time, seq,
handle)``, ``(time, seq, timer, version)`` or ``(time, seq, None,
callback, args)`` — ordered on ``(time, seq)`` alone: ``seq`` is
unique, so the order is total and nothing ever compares element 2.
Those tuples are what ``sim._push`` takes and what ``sim._pop`` and
iterating ``sim._heap`` *yield*, not necessarily what is stored: on
``kernel="python"`` ``sim._heap`` is a list under :mod:`heapq` (the
reference), on ``kernel="c"`` it is the extension's ``EventQueue``, an
array of structs keyed on ``(float(time), seq)``.  Because the order is
total, every correct priority queue pops the identical sequence; the
contract between the two is pop order and ``len()`` at every instant
(lazy deletion included — telemetry samples the depth), never layout.

A simulator binds (:data:`SIMULATOR`) its queue once, at construction,
with the five callables every scheduling site goes through:
``sim._push`` / ``sim._pop`` / ``sim._next_seq`` and the primitives
that build the last two shapes, :func:`_arm` (one unchecked timer arm)
and :func:`_fan_out` (the medium's two raw entries per receiver), as
``sim._arm`` / ``sim._fan_out`` — all six from one slot,
:meth:`Simulator._queue` (``heapq`` and the functions here) or its
compiled twin (the queue's methods and the compiled primitives), same
statements in the same order, so the call sites never ask which.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

from .binding import Table, bind, resolve
from .errors import SchedulingError, SimulationError
from .rng import RngRegistry
from .trace import TraceLog

_INF = math.inf

#: Accepted values for ``Simulator(kernel=...)`` / ``REPRO_KERNEL``.
KERNELS = ("auto", "python", "c")

#: The extension interface this engine binds: bumped whenever
#: ``_ckernel`` gains or changes an entry point the library calls, or a
#: class set its ``resolve`` takes gains a member.
KERNEL_ABI = 12

#: What every run loop tallies per entry shape, one ``Simulator`` slot
#: each: raw ``schedule_fast`` entries, timers and handles fired, then
#: timers (superseded or disarmed) and handles (cancelled) dropped
#: lazily.  Written back with ``_events_executed`` when ``run`` exits.
SHAPE_COUNTS = ("_fast_fired", "_timers_fired", "_handles_fired",
                "_timers_dropped", "_handles_dropped")

_ckernel: Optional[Any] = None
_ckernel_checked = False


def _load_ckernel() -> Optional[Any]:
    """Import and bind the optional compiled kernel, once.

    Returns the installed :mod:`repro.core._ckernel` module, or ``None``
    when the extension is not built (the normal state on machines that
    never ran ``tools/build_kernel.py``), was built from an older source
    (another :data:`KERNEL_ABI`: one warning, then treated as not
    built — never an ``AttributeError`` mid-run) or fails to bind
    against the event classes.  The result is cached either way; a
    failed probe is never retried within the process.
    """
    global _ckernel, _ckernel_checked
    if _ckernel_checked:
        return _ckernel
    _ckernel_checked = True
    try:
        from . import _ckernel as ext  # type: ignore[attr-defined]
    except ImportError:
        return None
    built_for = getattr(ext, "KERNEL_ABI", None)
    if built_for != KERNEL_ABI:
        import warnings
        warnings.warn(
            f"repro.core._ckernel was built for kernel ABI {built_for}, "
            f"this engine needs {KERNEL_ABI}: ignoring the stale extension "
            "and running the pure-Python kernel (rebuild it: "
            "python tools/build_kernel.py --force)",
            RuntimeWarning, stacklevel=2)
        return None
    try:
        resolve(ext, SIMULATOR)
    except Exception:
        # A built-but-incompatible extension (stale ABI, renamed slots)
        # must degrade to the reference loop, not poison every run.
        return None
    _ckernel = ext
    return ext


def ckernel_available() -> bool:
    """True when the compiled kernel is built and binds cleanly."""
    return _load_ckernel() is not None


def default_kernel() -> str:
    """The kernel selected when ``Simulator(kernel=None)`` (the default):
    the ``REPRO_KERNEL`` environment variable, or ``"auto"``."""
    return os.environ.get("REPRO_KERNEL", "auto")


def resolve_kernel(requested: Optional[str] = None) -> str:
    """Resolve a kernel request to the concrete kernel that will run.

    ``None`` reads :func:`default_kernel`.  ``"auto"`` resolves to
    ``"c"`` when the extension is available, else ``"python"``.
    ``"c"`` raises :class:`SimulationError` when the extension is not
    built — an explicit request must not silently run the other kernel
    (CI's ``REPRO_KERNEL=c`` lane relies on this to prove the compiled
    path actually executed).
    """
    if requested is None:
        requested = default_kernel()
    if requested not in KERNELS:
        raise SimulationError(
            f"unknown kernel {requested!r}; expected one of {KERNELS}")
    if requested == "python":
        return "python"
    if _load_ckernel() is not None:
        return "c"
    if requested == "c":
        raise SimulationError(
            "kernel='c' requested but repro.core._ckernel is not built, or "
            "was built from an older source "
            "(run: python tools/build_kernel.py --force)")
    return "python"


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("time", "seq", "callback", "args", "_cancelled", "_fired",
                 "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; safe to call multiple times."""
        if not self._cancelled and not self._fired:
            self._cancelled = True
            sim = self._sim
            if sim is not None:
                sim._cancelled_events += 1
        # Drop references so cancelled events don't pin objects alive
        # while they sit in the heap awaiting lazy deletion.
        self.callback = _noop
        self.args = ()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def pending(self) -> bool:
        return not self._cancelled and not self._fired

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Timer:
    """A reusable, re-anchorable one-shot timer.

    Unlike :meth:`Simulator.schedule`, arming a :class:`Timer` allocates
    no :class:`EventHandle` — the timer object itself rides in the heap
    entry together with a version number.  Re-arming or cancelling bumps
    the version; superseded entries left in the heap are dropped by the
    run loop when they surface, exactly like a cancelled handle (they do
    not count as executed events).  This makes ``cancel + reschedule``
    the cheap operation the DCF's contention machinery needs: a DIFS
    wait, the batched backoff countdown and the NAV each re-anchor on
    every CCA edge.

    At most one deadline is live at a time; the callback is fixed at
    construction and fires with no arguments.
    """

    __slots__ = ("_sim", "_callback", "_version", "_armed", "_time")

    def __init__(self, sim: "Simulator", callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._version = 0
        self._armed = False
        self._time = 0.0

    @property
    def armed(self) -> bool:
        """True while a deadline is pending."""
        return self._armed

    @property
    def time(self) -> float:
        """The pending deadline (meaningless unless :attr:`armed`)."""
        return self._time

    def schedule(self, delay: float) -> None:
        """Arm (or re-anchor) the timer ``delay`` seconds from now."""
        self.schedule_at(self._sim._now + delay)

    def schedule_at(self, time: float) -> None:
        """Arm (or re-anchor) the timer at absolute time ``time``."""
        sim = self._sim
        if not sim._now <= time < _INF:
            if time < sim._now:
                raise SchedulingError(
                    f"cannot schedule at t={time!r} before now={sim._now!r}")
            raise SchedulingError(f"invalid time: {time!r}")
        sim._arm(self, time)

    def cancel(self) -> bool:
        """Disarm; safe to call when idle.  Returns whether a deadline
        was pending.  The heap entry is dropped lazily when it
        surfaces."""
        if self._armed:
            self._armed = False
            self._sim._cancelled_events += 1
            return True
        return False


def _arm(timer: Timer, time: float) -> None:
    """Arm (or re-anchor) ``timer`` at absolute ``time``, unchecked.

    The one place a ``(time, seq, timer, version)`` entry is built.
    :meth:`Timer.schedule_at` validates ``time`` first; the contention
    hot paths (DIFS/EIFS wait, countdown, NAV, reception end) call this
    directly as ``sim._arm`` because their deadlines are ``now`` plus a
    non-negative finite float by construction.
    """
    sim = timer._sim
    if timer._armed:
        sim._cancelled_events += 1  # the live entry is superseded
    else:
        timer._armed = True
    timer._version += 1
    timer._time = time
    sim._scheduled += 1
    sim._push((time, sim._next_seq(), timer, timer._version))


def _fan_out(sim: "Simulator", entries: Any, transmission: Any,
             duration: float, start: Any = None) -> None:
    """Push one frame's arrival edges: for each ``(begins, ends,
    rx_power, delay)`` entry of a compiled fan-out plan, a raw
    ``begins(transmission, rx_power)`` entry at ``now + delay`` and a
    raw ``ends(transmission)`` entry at ``now + (delay + duration)``.
    ``start``, when given, replaces ``now`` as the base time: a boundary
    ghost's edges count from its record's start, not from this clock.

    ``schedule_fast_at`` without the bounds checks (delays and airtimes
    are non-negative by construction); entry shape and seq consumption
    are identical to it.  The parenthesization is the historical
    relative-delay arithmetic, NOT ``(now + delay) + duration`` — the
    ulp between them is enough to reorder CCA edges and desynchronize a
    seeded run.
    """
    now = sim._now if start is None else start
    push = sim._push
    next_seq = sim._next_seq
    for begins, ends, rx_power, delay in entries:
        push((now + delay, next_seq(), None, begins,
              (transmission, rx_power)))
        push((now + (delay + duration), next_seq(), None, ends,
              (transmission,)))
    sim._scheduled += 2 * len(entries)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams.
    trace:
        Optional :class:`~repro.core.trace.TraceLog`; a fresh one is
        created when omitted so tracing is always available.
    kernel:
        Which run-loop implementation dispatches events.  ``"python"``
        is the pure-Python reference loop over a ``heapq`` list; ``"c"``
        is the compiled :mod:`repro.core._ckernel` twin (bit-identical
        event sequence, raises if the extension is not built) and, with
        it, every compiled twin ``repro.core.binding`` hands out (the
        queue and primitives; a plain ``Radio``'s, ``DcfMac``'s and
        ``Nav``'s slots); ``"auto"`` picks the compiled kernel when
        available.  ``None`` (the
        default) reads the ``REPRO_KERNEL`` environment variable,
        falling back to ``"auto"``.  The kernel choice never changes
        results — the two are byte-for-byte interchangeable (gated by
        ``tests/test_macro_pins.py`` on each kernel and the parity
        suites) — only throughput.
    """

    KERNELS = KERNELS

    # What the compiled kernel reads and writes by offset (as it does a
    # Timer's fields); everything else lives in ``__dict__``.
    __slots__ = ("_now", "_heap", "_stopped", "_running",
                 "_events_executed", "_scheduled", "_cancelled_events",
                 *SHAPE_COUNTS, "__dict__", "__weakref__")

    def __init__(self, seed: int = 0, trace: Optional[TraceLog] = None,
                 kernel: Optional[str] = None):
        self._kernel = resolve_kernel(kernel)
        #: The extension on ``kernel="c"``, else None: whose ``run``
        #: this ``run`` is, and what ``bind`` hands twins out of.
        self._ext = _ckernel if self._kernel == "c" else None
        (self._heap, self._push, self._pop, self._next_seq, self._arm,
         self._fan_out) = bind(self, SIMULATOR, self)["_queue"]()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._scheduled = 0
        self._cancelled_events = 0
        self._fast_fired = self._timers_fired = self._handles_fired = 0
        self._timers_dropped = self._handles_dropped = 0
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else TraceLog()

    def _queue(self) -> Tuple[Any, ...]:
        """A fresh queue, its ``push`` / ``pop`` / ``next_seq`` and the
        ``arm`` / ``fan_out`` primitives (module docstring): ``heapq``'s
        and the Python functions here; the compiled ones in the twin."""
        heap: list = []
        return (heap, partial(heappush, heap), partial(heappop, heap),
                itertools.count().__next__, _arm, _fan_out)

    # --- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (diagnostics / progress)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events waiting in the heap (O(1)).

        Derived from three monotone counters (scheduled, executed,
        cancelled) so neither the run loop nor ``cancel`` pays a
        per-event decrement for a diagnostics-only figure.
        """
        return self._scheduled - self._events_executed - self._cancelled_events

    @property
    def heap_depth(self) -> int:
        """Raw queue length, lazily-deleted entries included.

        Differs from :attr:`pending_events` by the cancelled/superseded
        entries still awaiting lazy deletion — the figure that matters
        when queue memory or push cost is the question (telemetry
        samples it as ``kernel/heap_depth``).
        """
        return len(self._heap)

    # --- kernel selection ------------------------------------------------

    @property
    def kernel(self) -> str:
        """The concrete run-loop implementation: ``"python"`` or ``"c"``."""
        return self._kernel

    # --- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # The chained comparison is False for NaN, so one expression
        # covers the negative, NaN and infinity rejections.
        if 0.0 <= delay < _INF:
            time = self._now + delay
            seq = self._next_seq()
            event = EventHandle(time, seq, callback, args, self)
            self._scheduled += 1
            self._push((time, seq, event))
            return event
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {delay!r} s in the past (now={self._now!r})")
        raise SchedulingError(f"invalid delay: {delay!r}")

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if self._now <= time < _INF:
            seq = self._next_seq()
            event = EventHandle(time, seq, callback, args, self)
            self._scheduled += 1
            self._push((time, seq, event))
            return event
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at t={time!r} before now={self._now!r}")
        raise SchedulingError(f"invalid time: {time!r}")

    def call_now(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule a callback for the current instant (after current event)."""
        return self.schedule(0.0, callback, *args)

    # --- fire-and-forget fast path -----------------------------------------

    def schedule_fast(self, delay: float, callback: Callable[..., None],
                      *args: Any) -> None:
        """Like :meth:`schedule` but returns no handle (not cancellable).

        Skips the :class:`EventHandle` allocation; use only for events
        that are never cancelled (frame arrival fan-out, TX-complete).
        Ordering relative to handle-based events is identical — both
        share the same time/sequence heap.
        """
        if not 0.0 <= delay < _INF:
            if delay < 0:
                raise SchedulingError(
                    f"cannot schedule {delay!r} s in the past "
                    f"(now={self._now!r})")
            raise SchedulingError(f"invalid delay: {delay!r}")
        self._scheduled += 1
        self._push((self._now + delay, self._next_seq(),
                    None, callback, args))

    def schedule_fast_at(self, time: float, callback: Callable[..., None],
                         *args: Any) -> None:
        """Absolute-time variant of :meth:`schedule_fast`."""
        if not self._now <= time < _INF:
            if time < self._now:
                raise SchedulingError(
                    f"cannot schedule at t={time!r} before now={self._now!r}")
            raise SchedulingError(f"invalid time: {time!r}")
        self._scheduled += 1
        self._push((time, self._next_seq(), None, callback, args))

    # --- execution --------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the simulation time when the
        run stopped.

        When the run stops because of ``until``, the clock is advanced to
        exactly ``until`` so that back-to-back ``run`` calls observe a
        continuous timeline.

        The executed-events counter and the per-shape tallies
        (:data:`SHAPE_COUNTS`) are held in locals and written back once,
        when the run returns or raises: mid-run, ``events_executed``
        reads the figure of the run's start and ``pending_events``
        over-counts by what ran since (:func:`live_entries` counts the
        queue instead).
        """
        if self._ext is not None:
            # Compiled twin of everything below — identical event
            # sequence, counters and clock writes (see _ckernel.c's
            # bit-identity contract).
            return self._ext.run(self, until, max_events)
        if self._running:
            raise SimulationError("run() called re-entrantly")
        # Read before the flags are set: a bad budget or counter
        # raises here and leaves the simulator runnable.
        executed = start = self._events_executed
        limit = _INF if max_events is None else start + max_events
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = self._pop
        timer_class = Timer
        horizon = _INF if until is None else until
        fast = timers = timer_drops = handle_drops = 0
        try:
            while heap and not self._stopped and executed < limit:
                entry = pop()
                time = entry[0]
                if time > horizon:
                    self._push(entry)
                    break
                event = entry[2]
                if event is None:
                    callback = entry[3]
                    args = entry[4]
                    fast += 1
                elif event.__class__ is timer_class:
                    # Timer entry: (time, seq, timer, version).  Checked
                    # before the handle shape — re-anchoring timers
                    # outnumber EventHandles in contention-heavy runs,
                    # so the common case pays one class test, not two.
                    if event._version != entry[3] or not event._armed:
                        timer_drops += 1
                        continue  # superseded/cancelled: lazy drop
                    event._armed = False
                    callback = event._callback
                    args = ()
                    timers += 1
                else:
                    # An EventHandle, or any object with its attributes.
                    if event._cancelled:
                        handle_drops += 1
                        continue
                    event._fired = True
                    callback = event.callback
                    args = event.args
                self._now = time
                executed += 1
                callback(*args)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
            self._fast_fired += fast
            self._timers_fired += timers
            self._handles_fired += executed - start - fast - timers
            self._timers_dropped += timer_drops
            self._handles_dropped += handle_drops
            self._events_executed = executed
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def clear(self) -> None:
        """Cancel every pending event (used between experiment phases)
        and zero the per-shape tallies (:data:`SHAPE_COUNTS`).

        Call it between runs, not from inside a callback: mid-run the
        run loop holds the executed-events counter in a local, so a
        mid-callback clear would re-baseline the diagnostics-only
        ``pending_events`` figure from a stale value.
        """
        for entry in self._heap:
            event = entry[2]
            if event is not None:
                event.cancel()
        self._heap.clear()
        # Re-baseline so pending_events reads zero (raw fire-and-forget
        # entries were dropped without passing through cancel()).
        self._scheduled = self._events_executed + self._cancelled_events
        self._fast_fired = self._timers_fired = self._handles_fired = 0
        self._timers_dropped = self._handles_dropped = 0


def live_entries(sim: Simulator) -> int:
    """A census of the entries in ``sim``'s queue that will still fire.

    A live entry is a fire-and-forget ``schedule_fast`` record (live
    until popped), a :class:`Timer` entry that carries its armed
    deadline's version, or a pending :class:`EventHandle`; superseded
    and cancelled entries are lazy trash.  Exact at any instant, mid-run
    included (the entry being fired has left the queue), where
    :attr:`Simulator.pending_events` still subtracts the executed
    counter of the run's start; O(queue length), so for samplers and
    audits, not the loop.
    """
    live = 0
    for entry in sim._heap:
        event = entry[2]
        if event is None:
            live += 1
        elif len(entry) == 4:
            if event._armed and event._version == entry[3]:
                live += 1
        elif not event._cancelled and not event._fired:
            live += 1
    return live


#: The queue and its callables: ``Simulator._queue`` or its twin.
SIMULATOR = Table("Simulator", "kernel", {
    "Timer": Timer, "EventHandle": EventHandle,
    "SimulationError": SimulationError, "Simulator": Simulator},
    lambda sim: (), (), ("_queue",))


class PeriodicTask:
    """Re-arms a callback at a fixed period until cancelled.

    Used for beacons, polling loops, and traffic generators.  The task
    fires first after ``offset`` seconds (default: one full period).
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None],
                 offset: Optional[float] = None):
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._active = True
        self._fired = 0
        first = period if offset is None else offset
        self._handle = sim.schedule(first, self._fire)

    @property
    def fired(self) -> int:
        """How many times the task has fired."""
        return self._fired

    @property
    def active(self) -> bool:
        return self._active

    @property
    def period(self) -> float:
        return self._period

    def _fire(self) -> None:
        if not self._active:
            return
        self._fired += 1
        self._callback()
        if self._active:
            self._handle = self._sim.schedule(self._period, self._fire)

    def cancel(self) -> None:
        """Stop the task; the callback will not fire again."""
        self._active = False
        self._handle.cancel()
