"""Shared harness plumbing: ``--only`` globs and the fork/timeout pool.

The campaign executor and ``tools/capture_golden.py`` run on this one
copy of the tricky machinery: N fork-once workers, a wall-clock
deadline per task, and output order pinned to input order regardless
of completion order.

Tasks are zero-argument callables.  Workers are started with the
``fork`` context on purpose, once the task list exists: a worker shares
the parent's loaded modules — monkeypatches, registries and closures
included — and the task list, so only a task *index* goes down its pipe
and only the result is pickled back.  A worker runs many tasks, which
share its process state exactly as they always have on the in-process
``jobs=1`` path; one that dies or blows a deadline is killed, charged
to the one task it was running, and replaced.
"""

from __future__ import annotations

import fnmatch
import gc
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, \
    Optional, Sequence, Tuple

__all__ = ["select_names", "call_guarded", "iter_pooled"]

Task = Callable[[], Any]
#: ``(status, payload)``: ("ok", result) | ("error", message) |
#: ("timeout", None).
Outcome = Tuple[str, Any]


def select_names(patterns: Optional[Sequence[str]],
                 available: Iterable[str],
                 what: str = "scenario") -> List[str]:
    """Resolve ``--only`` patterns against an available-name set.

    Each entry is an exact name or a glob; order follows the pattern
    list, duplicates collapse, and a pattern matching nothing raises
    ``ValueError`` (a typo must not silently run zero items and report
    success).  With no patterns, every available name is returned
    sorted.
    """
    names_all = sorted(available)
    if not patterns:
        return names_all
    names: List[str] = []
    unmatched = []
    for pattern in patterns:
        matched = sorted(fnmatch.filter(names_all, pattern))
        if not matched:
            unmatched.append(pattern)
        names.extend(name for name in matched if name not in names)
    if unmatched:
        raise ValueError(f"unknown {what}(s)/pattern(s): {unmatched}; "
                         f"available: {names_all}")
    return names


def _worker(conn, tasks: Sequence[Task], parent_ends) -> None:
    """Worker body: run the task indices read off ``conn`` until EOF."""
    # An inherited copy of a parent-side pipe end (its own, a sibling's)
    # would hold that pipe open after the parent is gone; without one,
    # a vanished parent is an EOF here and the worker exits.
    for parent_end in parent_ends:
        parent_end.close()
    # The worker owns its process: it never scans the heap it inherited
    # and collects its own garbage even if the parent had that disabled.
    gc.freeze()
    gc.enable()
    try:
        while True:
            index = conn.recv()
            try:
                outcome = ("ok", tasks[index]())
            except BaseException as exc:  # report, don't hang the parent
                outcome = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(outcome)
    except (EOFError, OSError):  # the parent closed the pipe, or died
        pass


def call_guarded(task: Task, timeout: float = 0.0) -> Outcome:
    """Run ``task`` with an optional wall-clock cap.

    With ``timeout`` <= 0, runs in-process exactly as a plain call
    (exceptions propagate to the caller).  With a timeout, the task
    runs in a forked worker and one that livelocks or blows its budget
    is killed — yielding a clean ``("timeout", None)`` instead of
    hanging the whole run.
    """
    (_index, status, payload), = iter_pooled([task], timeout=timeout)
    return status, payload


def iter_pooled(tasks: Sequence[Task], *, timeout: float = 0.0,
                jobs: int = 1) -> Iterator[Tuple[int, str, Any]]:
    """Yield ``(index, status, payload)`` for every task, **in input
    order** regardless of completion order.

    ``jobs <= 1`` without a timeout runs the tasks in-process
    (exceptions propagate to the caller).  Otherwise ``jobs`` workers
    are forked once and fed task indices; a finished worker gets its
    next index *before* its result is yielded, so workers compute while
    the consumer handles rows, and results are buffered until their
    turn.  A task past ``timeout`` yields ``("timeout", None)``, one
    whose worker died ``("error", "worker exited with code N")``: only
    that worker is killed, and a fresh one takes over.  However the
    generator ends — exhausted, closed, interrupted — every worker is
    reaped first.
    """
    if jobs <= 1 and timeout <= 0:
        for index, task in enumerate(tasks):
            yield index, "ok", task()
        return
    import multiprocessing.connection
    import multiprocessing.util
    ctx = multiprocessing.get_context("fork")
    # Everything is keyed by input *index*, never by any task-derived
    # name: the same work item may legitimately appear more than once
    # in the input list, and name-keyed buffering would collapse (and
    # lose) those rows.
    workers: Dict[Any, Any] = {}  # parent-side pipe end -> process
    busy: Dict[Any, Tuple[int, float]] = {}  # pipe end -> index, deadline
    results: Dict[int, Outcome] = {}
    issued = emitted = 0
    total = len(tasks)

    def dispatch(conn: Any = None) -> None:
        """Hand the next index to ``conn`` (default: a new worker)."""
        nonlocal issued
        if issued == total:
            return
        if conn is None:
            conn, child_end = ctx.Pipe()
            workers[conn] = ctx.Process(
                target=_worker, args=(child_end, tasks, [conn, *workers]))
            workers[conn].start()
            child_end.close()
        conn.send(issued)
        busy[conn] = (issued, time.monotonic() + timeout)
        issued += 1

    def retire(conn: Any) -> Optional[int]:
        """Reap one worker — killed if mid-task, else by EOF — and
        return its exit code."""
        proc = workers.pop(conn)
        conn.close()
        if busy.pop(conn, None):
            proc.kill()
        proc.join()
        return proc.exitcode

    def reap_all() -> None:
        for conn in list(workers):
            retire(conn)

    # Also run at interpreter exit, before multiprocessing joins its
    # children: a generator left suspended (a traceback can hold one)
    # would keep idle workers waiting for EOF, and the exit for them.
    reap = multiprocessing.util.Finalize(None, reap_all, exitpriority=0)
    try:
        for _ in range(min(max(jobs, 1), total)):
            dispatch()
        while emitted < total:
            wait_s = None if timeout <= 0 else max(0.0, min(
                deadline for _, deadline in busy.values()) - time.monotonic())
            for conn in multiprocessing.connection.wait(list(busy), wait_s):
                index = busy[conn][0]
                try:
                    results[index] = conn.recv()
                    del busy[conn]
                except (EOFError, OSError):  # died without reporting
                    results[index] = (
                        "error", f"worker exited with code {retire(conn)}")
                    conn = None
                dispatch(conn)
            now = time.monotonic()
            for conn in [c for c, (_, deadline) in busy.items()
                         if 0 < timeout and deadline <= now]:
                results[busy[conn][0]] = ("timeout", None)
                retire(conn)
                dispatch()
            while emitted in results:
                status, payload = results.pop(emitted)
                yield emitted, status, payload
                emitted += 1
    finally:
        reap()
