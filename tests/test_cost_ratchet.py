"""The cost ratchet: what four benchmark workloads do, counted.

For ``dense_cell``, ``emitter_field``, ``mesh_roam`` and
``city_coupled`` (imported from ``bench.workloads``, seed 1, scale 0.1)
``tests/fixtures/costs.json`` holds

* the counters ``finish()`` reports (events, frames, plan and link
  misses, …): the same on every kernel and interpreter;
* the calls per layer of ``bench.ledger.profile_ledger`` over the
  workload's ``ledger_run`` (or ``run``), keyed by kernel and Python
  minor version.  They come from a second repeat, as in the benchmark's
  traced pass: the first fills module caches (``dense_cell`` reads
  79 979 ``phy.models`` calls on repeat 1 and 340 from repeat 2 on).

They are measured in a fresh interpreter, so module caches filled by
other tests cannot move them.  Any change, in either direction, fails
and names the workload, the counter or layer, and old -> new: a saving
is recorded on purpose, a cost is explained or removed.
``campaign_grid`` is left out (its counters are all zero and its
set-up writes under ``bench/out``).

Re-record this interpreter's and kernel's entry, after a deliberate
change, with ``PYTHONPATH=src python tests/test_cost_ratchet.py``
(``REPRO_KERNEL=python`` for the pure-Python kernel).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "costs.json"
NAMES = ("dense_cell", "emitter_field", "mesh_roam", "city_coupled")
SEED = 1
SCALE = 0.1


def measure_all():
    """This interpreter's ``{"environment", "counters", "calls"}``: per
    workload the counters of a plain repeat and the calls of a profiled
    second repeat of the ledger call."""
    sys.path.insert(0, str(REPO_ROOT))
    from bench.ledger import profile_ledger
    from bench.workloads import WORKLOADS
    from repro.core.engine import resolve_kernel

    result = {"environment": f"{resolve_kernel()}/py"
                             f"{sys.version_info[0]}.{sys.version_info[1]}",
              "counters": {}, "calls": {}}
    for name in NAMES:
        workload = WORKLOADS[name]
        state = workload.setup(SEED, SCALE)
        workload.run(state)
        result["counters"][name] = workload.finish(state).counters
        target = workload.ledger_run or workload.run
        if workload.ledger_run is not None:
            target(workload.setup(SEED, SCALE))
        state = workload.setup(SEED, SCALE)
        result["calls"][name] = profile_ledger(lambda: target(state))["calls"]
    return result


@pytest.fixture(scope="module")
def measured():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, __file__, "--measure"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def changes(old, new):
    return [f"{key}: {old.get(key)} -> {new.get(key)}"
            for key in sorted(set(old) | set(new))
            if old.get(key) != new.get(key)]


def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_finish_counters_are_unchanged(name, measured):
    moved = changes(recorded()["counters"][name], measured["counters"][name])
    assert not moved, f"{name} counters moved: " + "; ".join(moved)


@pytest.mark.parametrize("name", NAMES)
def test_calls_per_layer_are_unchanged(name, measured):
    environment = measured["environment"]
    entry = recorded()["calls"].get(environment)
    if entry is None:
        pytest.skip(f"no calls recorded for {environment}; record them "
                    f"with: python tests/test_cost_ratchet.py")
    moved = changes(entry[name], measured["calls"][name])
    assert not moved, f"{name} calls per layer moved ({environment}): " \
        + "; ".join(moved)


def record() -> None:
    """Write this interpreter's measurements into the fixture."""
    measured = measure_all()
    data = recorded() if FIXTURE.exists() else {"calls": {}}
    data.update(seed=SEED, scale=SCALE, counters=measured["counters"])
    data["calls"][measured["environment"]] = measured["calls"]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {measured['environment']} -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        print(json.dumps(measure_all()))
    else:
        record()
