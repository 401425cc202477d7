"""The campaign executor: expand, fan out, persist, resume.

Orchestrates one campaign end-to-end:

1. expand the validated spec into the ordered job grid,
2. open (or resume) the content-addressed manifest,
3. fan pending jobs across ``jobs`` fork-once workers (``jobs``/
   ``timeout`` ride the same :mod:`repro.campaign.pool` machinery as
   ``run_bench --jobs``),
4. append every completion to the manifest journal, fsynced, the
   instant it arrives while the workers compute on (crash-safe: a kill
   at any instant loses at most the unacknowledged in-flight jobs),
5. stream result rows into the columnar store **in grid order**, done
   rows from previous runs included, so an interrupted-and-resumed
   campaign produces a store byte-identical to an uninterrupted one.

Failed and timed-out jobs produce failure rows (and a nonzero summary)
but never poison the rest of the grid; a resume retries them.
"""

from __future__ import annotations

import os
import pathlib
from contextlib import closing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from .grid import Job, expand_grid, grid_sha1
from .manifest import Manifest
from .pool import iter_pooled, select_names
from .runner import run_job
from .store import StoreWriter

__all__ = ["run_campaign", "CampaignResult"]

#: Test hook for the crash-safety suite: when set to N, the executor
#: calls ``os._exit`` (no cleanup, no atexit — an honest SIGKILL stand-
#: in) immediately after the Nth manifest record of the run.  Documented
#: here because the resume byte-identity gate in CI depends on it.
CRASH_AFTER_ENV = "REPRO_CAMPAIGN_CRASH_AFTER"


@dataclass
class CampaignResult:
    """What one executor invocation did."""

    name: str
    jobs: List[Job]
    rows: List[Dict[str, Any]]
    manifest_path: pathlib.Path
    store_path: pathlib.Path
    csv_path: pathlib.Path
    #: Jobs executed in this invocation (not reused from the manifest).
    ran: int = 0
    #: Jobs whose done rows were reused from a previous run.
    reused: int = 0
    failed: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed


def _row(name: str, job: Job, status: str,
         stats: Optional[Dict[str, Any]] = None,
         error: Optional[str] = None) -> Dict[str, Any]:
    row: Dict[str, Any] = {
        "campaign": name,
        "index": job.index,
        "key": job.key,
        "label": job.label,
        "axes": dict(sorted(job.axes.items())),
        "seed": job.seed,
        "status": status,
    }
    if stats is not None:
        row["stats"] = stats
    if error is not None:
        row["error"] = error
    return row


def run_campaign(spec: Dict[str, Any], out_dir: pathlib.Path, *,
                 jobs: int = 1, timeout: float = 0.0, fresh: bool = False,
                 only: Optional[Sequence[str]] = None,
                 max_jobs: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignResult:
    """Run (or resume) one campaign; return its result summary.

    ``only`` filters job *labels* with the shared ``--only`` glob
    contract (e.g. ``'seed=11'`` or ``'*rts*=256*'``); filtered-out
    jobs are skipped this invocation but stay pending in the manifest.
    ``max_jobs`` caps how many pending jobs this invocation executes —
    the budgeted/incremental mode (the rest stays pending for the next
    resume).  Neither knob changes row identity, so partial
    invocations compose: once every job is done, the store is the same
    bytes no matter how the work was sliced.
    """
    say = progress if progress is not None else (lambda message: None)
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = spec["campaign"]["name"]
    grid = expand_grid(spec)
    fingerprint = grid_sha1(grid)
    manifest = Manifest.open(out_dir / f"{name}.manifest.json", name,
                             fingerprint, fresh=fresh)

    pending = [job for job in grid if not manifest.is_done(job.key)]
    if only:
        labels = select_names(only, [job.label for job in pending],
                              what="job label")
        wanted = set(labels)
        pending = [job for job in pending if job.label in wanted]
    if max_jobs is not None:
        pending = pending[:max_jobs]

    def _task(_spec):
        # One job as a self-reporting task: a job that raises becomes a
        # failure *row*, never an exception that poisons the rest of
        # the grid (the pool's in-process mode would otherwise let it
        # propagate, which is right for run_bench but not here).
        def run():
            try:
                return "ok", run_job(_spec)
            except Exception as exc:
                return "error", f"{type(exc).__name__}: {exc}"
        return run

    crash_after = int(os.environ.get(CRASH_AFTER_ENV, 0) or 0)
    recorded = 0
    outcomes: Dict[str, Any] = {}
    tasks = [_task(job.spec) for job in pending]
    # closing(): an exception below must reap the workers now, not
    # whenever its traceback lets go of the generator.
    with closing(iter_pooled(tasks, timeout=timeout, jobs=jobs)) as pooled:
        for index, status, payload in pooled:
            job = pending[index]
            if status == "ok":
                # Unwrap the task's own (status, payload) report.
                status, payload = payload
            if status == "ok":
                manifest.record_done(job.key, payload)
                say(f"{job.label:40s} ok")
            else:
                reason = (f"timed out after {timeout:g}s"
                          if status == "timeout" else payload)
                manifest.record_failed(job.key, reason)
                say(f"{job.label:40s} FAILED: {reason}")
            outcomes[job.key] = status
            recorded += 1
            if crash_after and recorded >= crash_after:
                # Crash-safety test hook: die the hard way, mid-grid, with
                # no flushing beyond what the manifest already guaranteed.
                os._exit(23)

    # Project the manifest into the store, in grid order.  Every job
    # gets a row: done rows carry stats, still-pending ones (filtered
    # out or beyond --max-jobs) an explicit "pending" status so the
    # CSV's shape never depends on how far the campaign has got.
    writer = StoreWriter(out_dir / f"{name}.results.jsonl",
                         out_dir / f"{name}.results.csv")
    result = CampaignResult(name=name, jobs=grid, rows=[],
                            manifest_path=manifest.path,
                            store_path=writer.jsonl_path,
                            csv_path=writer.csv_path,
                            ran=len(outcomes))
    try:
        for job in grid:
            stats = manifest.row(job.key)
            if stats is not None:
                writer.add(job.index, _row(name, job, "done", stats=stats))
                if job.key not in outcomes:
                    result.reused += 1
            elif manifest.status(job.key) == "failed":
                writer.add(job.index, _row(
                    name, job, "failed",
                    error=manifest.jobs[job.key]["error"]))
                result.failed.append(job.label)
            else:
                writer.add(job.index, _row(name, job, "pending"))
    except BaseException:
        writer.abort()
        raise
    result.rows = writer.close()
    return result
