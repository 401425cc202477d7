"""Every committed spec's seeded stats equal their pins.

Each ``specs/*.toml`` runs through ``run_campaign`` (two forked
workers, 60 s per job), and every row's stats are compared with
``tests/fixtures/pins.json``, keyed ``<campaign>/<job label>``.  A
drifted stat fails as ``DRIFT <campaign>/<label> <stat>: old -> new``;
a job without a pin, a pin without a job and a job that failed or
outran its timeout fail by name too.  The pins hold on every kernel, so
each kernel lane runs the same check.

Re-record them on purpose, after a deliberate behaviour change, with
``PYTHONPATH=src python tests/test_macro_pins.py [SPEC_NAME ...]``
(no names: every spec; the other pins are kept).
"""

import json
import pathlib
import sys
import tempfile
from typing import Any, Dict, List

import pytest

from repro.campaign import expand_grid, load_spec, run_campaign

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS = sorted((REPO_ROOT / "specs").glob("*.toml"))
PINS = REPO_ROOT / "tests" / "fixtures" / "pins.json"
#: Per-job budget: the slowest job takes about 1.5 s on the pure-Python
#: kernel, so one still running after this has hung.
TIMEOUT_S = 60.0


def load_pins() -> Dict[str, Dict[str, Any]]:
    return json.loads(PINS.read_text())


def run_spec(path: pathlib.Path, out_dir: pathlib.Path
             ) -> List[Dict[str, Any]]:
    """The spec's store rows, every job run afresh."""
    return run_campaign(load_spec(path), out_dir, jobs=2,
                        timeout=TIMEOUT_S, fresh=True).rows


def pin_key(row: Dict[str, Any]) -> str:
    return f"{row['campaign']}/{row['label']}"


def committed_jobs() -> List[str]:
    """The pin key of every job the committed specs expand to."""
    return [f"{spec['campaign']['name']}/{job.label}"
            for spec in map(load_spec, SPECS) for job in expand_grid(spec)]


def drift(key: str, stats: Dict[str, Any], pin: Dict[str, Any]) -> List[str]:
    """One ``DRIFT`` line per stat whose value moved, appeared or went."""
    def show(side: Dict[str, Any], stat: str) -> str:
        return repr(side[stat]) if stat in side else "<absent>"
    return [f"DRIFT {key} {stat}: {show(pin, stat)} -> {show(stats, stat)}"
            for stat in sorted(set(stats) | set(pin))
            if stat not in pin or stat not in stats
            or pin[stat] != stats[stat]]


def check_rows(rows: List[Dict[str, Any]],
               pins: Dict[str, Dict[str, Any]]) -> List[str]:
    """Every problem with ``rows`` against ``pins``, one line each."""
    problems = []
    for row in rows:
        key = pin_key(row)
        if row["status"] != "done":
            problems.append(f"FAILED {key}: {row.get('error', row['status'])}")
        elif key not in pins:
            problems.append(f"NO PIN {key}: record one with PYTHONPATH=src "
                            f"python tests/test_macro_pins.py")
        else:
            problems.extend(drift(key, row["stats"], pins[key]))
    return problems


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_spec_matches_its_pins(path, tmp_path):
    problems = check_rows(run_spec(path, tmp_path), load_pins())
    assert problems == [], "\n".join(problems)


def test_every_problem_names_the_job_and_the_stat():
    rows = [{"campaign": "demo", "label": "seed=1", "status": "done",
             "stats": {"rx": 2, "new": 3}},
            {"campaign": "demo", "label": "seed=2", "status": "done",
             "stats": {}},
            {"campaign": "demo", "label": "seed=3", "status": "failed",
             "error": "timed out after 60s"}]
    assert check_rows(rows, {"demo/seed=1": {"rx": 1, "gone": 0}}) == [
        "DRIFT demo/seed=1 gone: 0 -> <absent>",
        "DRIFT demo/seed=1 new: <absent> -> 3",
        "DRIFT demo/seed=1 rx: 1 -> 2",
        "NO PIN demo/seed=2: record one with PYTHONPATH=src python "
        "tests/test_macro_pins.py",
        "FAILED demo/seed=3: timed out after 60s"]


def test_every_pin_has_a_committed_job():
    jobs = committed_jobs()
    assert len(set(jobs)) == len(jobs), "two specs share a campaign name"
    assert sorted(set(load_pins()) - set(jobs)) == []


def record(names: List[str]) -> None:
    """Re-record the pins of the named specs (all when none are named);
    keep the others, drop pins whose job no longer exists."""
    paths = [path for path in SPECS if not names or path.stem in names]
    unknown = set(names) - {path.stem for path in paths}
    if unknown:
        raise SystemExit(f"no spec named {sorted(unknown)} under specs/")
    jobs = set(committed_jobs())
    pins = {key: stats for key, stats in
            (load_pins() if PINS.exists() else {}).items() if key in jobs}
    with tempfile.TemporaryDirectory() as scratch:
        for path in paths:
            for row in run_spec(path, pathlib.Path(scratch) / path.stem):
                if row["status"] != "done":
                    raise SystemExit(f"{pin_key(row)} failed: "
                                     f"{row.get('error')}")
                pins[pin_key(row)] = row["stats"]
                print(f"recorded {pin_key(row)}")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pins -> {PINS}")


if __name__ == "__main__":
    record(sys.argv[1:])
