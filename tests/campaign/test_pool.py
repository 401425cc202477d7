"""The fork-once pool's failure side: each case below would hang, lose
rows, poison later tasks or leave processes behind if done wrong."""

import os
import subprocess
import sys
import time

import pytest

from repro.campaign import Manifest, run_campaign, validate_spec
from repro.campaign.pool import call_guarded, iter_pooled

from .conftest import small_spec
from .test_crash_safety import SPEC_TOML

linux_only = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads the process table in /proc")


def proc_reads(name):
    """``(pid, bytes of /proc/<pid>/<name>)`` for every process."""
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/{name}", "rb") as handle:
                yield int(entry), handle.read()
        except OSError:  # gone between listdir and open
            continue


def child_pids():
    """Every child of this process, zombies included."""
    me = os.getpid()
    return {pid for pid, stat in proc_reads("stat")
            if int(stat.rsplit(b")", 1)[1].split()[1]) == me}


def survivors(marker):
    """Pids of processes whose command line mentions ``marker``."""
    return [pid for pid, cmdline in proc_reads("cmdline")
            if marker.encode() in cmdline]


def value(result, delay=0.0):
    def task():
        time.sleep(delay)
        return result
    return task


def hang():
    time.sleep(60)


def collect(tasks, **kwargs):
    return list(iter_pooled(tasks, **kwargs))


# --- order and identity of rows ---------------------------------------------

def test_output_order_is_input_order_under_adversarial_completion():
    # Every task finishes before the one listed ahead of it.
    delays = [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]
    tasks = [value(index, delay) for index, delay in enumerate(delays)]
    assert collect(tasks, jobs=4) \
        == [(index, "ok", index) for index in range(len(delays))]


def test_duplicate_task_objects_keep_one_row_each():
    task = value("same")
    assert collect([task] * 5, jobs=3) \
        == [(index, "ok", "same") for index in range(5)]


@pytest.mark.parametrize("kwargs", [
    {"jobs": 1, "timeout": 30.0}, {"jobs": 2}, {"jobs": 5},
    {"jobs": 5, "timeout": 30.0}])
def test_results_do_not_depend_on_the_worker_count(kwargs):
    tasks = [value(index * index) for index in range(3)]
    assert collect(tasks, **kwargs) == collect(tasks, jobs=1)


def test_no_tasks_no_workers():
    assert collect([], jobs=3, timeout=1.0) == []


def test_one_job_without_timeout_stays_in_process():
    assert collect([os.getpid], jobs=1) == [(0, "ok", os.getpid())]
    assert call_guarded(os.getpid) == ("ok", os.getpid())
    assert collect([os.getpid], jobs=2)[0][2] != os.getpid()
    with pytest.raises(ZeroDivisionError):
        collect([lambda: 1 / 0], jobs=1)


def test_workers_are_forked_once_and_share_the_task_list():
    pids = [pid for _, _, pid in collect([os.getpid] * 12, jobs=2)]
    assert 1 <= len(set(pids)) <= 2 and os.getpid() not in pids


# --- a dead worker, a hung worker -------------------------------------------

@pytest.mark.parametrize("kwargs", [{"jobs": 2}, {"jobs": 1, "timeout": 30.0}])
def test_a_dead_worker_costs_its_own_task_only(kwargs):
    tasks = [value(0), lambda: os._exit(3)] \
        + [value(index) for index in range(2, 7)]
    rows = collect(tasks, **kwargs)
    assert rows[1] == (1, "error", "worker exited with code 3")
    assert [row for row in rows if row[0] != 1] \
        == [(index, "ok", index) for index in (0, 2, 3, 4, 5, 6)]


def test_a_raising_task_is_reported_and_its_worker_lives_on():
    def boom():
        raise RuntimeError("synthetic")
    rows = collect([os.getpid, boom, os.getpid], jobs=1, timeout=30.0)
    assert rows[1] == (1, "error", "RuntimeError: synthetic")
    assert rows[0][2] == rows[2][2]


def test_a_timeout_spares_the_other_workers_task_in_flight():
    # Worker A: "a" until 0.6 s, then "b" until 1.2 s.  Worker B hangs
    # and is killed at 1.0 s, with "b" in flight next door; "c" runs on
    # B's replacement.
    tasks = [value("a", 0.6), hang, value("b", 0.6), value("c")]
    start = time.monotonic()
    rows = collect(tasks, jobs=2, timeout=1.0)
    assert rows == [(0, "ok", "a"), (1, "timeout", None), (2, "ok", "b"),
                    (3, "ok", "c")]
    assert time.monotonic() - start < 30.0


def test_call_guarded_with_a_timeout_is_a_one_task_pool():
    assert call_guarded(value("x"), timeout=30.0) == ("ok", "x")
    assert call_guarded(hang, timeout=0.3) == ("timeout", None)
    assert call_guarded(lambda: os._exit(7), timeout=30.0) \
        == ("error", "worker exited with code 7")


# --- nothing left behind ----------------------------------------------------

@linux_only
def test_an_exhausted_pool_leaves_no_child():
    before = child_pids()
    collect([value(index) for index in range(6)], jobs=3, timeout=30.0)
    assert child_pids() == before


@linux_only
def test_closing_the_generator_reaps_idle_and_busy_workers():
    before = child_pids()
    pooled = iter_pooled([value("first"), hang, hang, value("never")],
                         jobs=3)
    assert next(pooled) == (0, "ok", "first")
    assert len(child_pids() - before) == 3
    start = time.monotonic()
    pooled.close()
    assert child_pids() == before  # no live child, no zombie
    assert time.monotonic() - start < 10.0


@linux_only
def test_an_exception_in_the_consumer_reaps_the_workers(tmp_path,
                                                        monkeypatch):
    def full_disk(self, key, row):
        raise OSError("synthetic: no space left on device")
    monkeypatch.setattr(Manifest, "record_done", full_disk)
    before = child_pids()
    with pytest.raises(OSError, match="synthetic") as excinfo:
        run_campaign(validate_spec(small_spec()), tmp_path, jobs=2)
    # The traceback still holds run_campaign's frame; the workers are
    # gone all the same.
    assert excinfo.traceback
    assert child_pids() == before


@linux_only
def test_workers_exit_when_their_parent_dies_mid_grid(tmp_path, repo_root):
    # os._exit(23) after the second record, with jobs 2 and 3 already
    # handed to the workers: nobody is left to reap them, so each must
    # notice the closed pipe on its own.  A worker holding a copy of a
    # sibling's parent-side pipe end would keep both alive for ever.
    spec = tmp_path / "crashtest.toml"
    spec.write_text(SPEC_TOML)
    out_dir = tmp_path / "orphans"
    # Output to /dev/null, not pipes: a surviving worker would hold a
    # pipe open and turn this failure into a hang.
    killed = subprocess.run(
        [sys.executable, str(repo_root / "tools" / "run_campaign.py"),
         str(spec), "--out-dir", str(out_dir), "--jobs", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin",
             "REPRO_CAMPAIGN_CRASH_AFTER": "2"}, cwd=repo_root, timeout=60)
    assert killed.returncode == 23
    deadline = time.monotonic() + 2.0
    while survivors(str(out_dir)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert survivors(str(out_dir)) == []


def test_exit_with_the_generator_suspended_does_not_wait_for_ever(
        tmp_path, repo_root):
    # multiprocessing joins its children at interpreter exit; idle
    # workers of a generator nobody closed would wait for an EOF that
    # only that exit can send.
    script = tmp_path / "suspended.py"
    script.write_text(
        "import sys\n"
        "from repro.campaign.pool import iter_pooled\n"
        "pooled = iter_pooled([int, int, int], jobs=2)\n"
        "next(pooled)\n"
        "sys.exit(5)\n")
    done = subprocess.run(
        [sys.executable, str(script)], timeout=60,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"})
    assert done.returncode == 5
