"""Every committed job's seeded stats and protocol trace equal their pins.

Every job of every ``specs/*.toml`` is one task of
``repro.campaign.pool.iter_pooled`` (two forked workers, 60 s per job),
and each task runs its job twice: untraced, for its stats and, where
``mode.telemetry`` is armed, the SHA-1 of its sim-time telemetry
stream; then with the runner's ``Simulator`` name swapped for a factory
that gives every simulator a :class:`~repro.core.trace.TraceDigest`, in
construction order, and stepped through ``runner.build_job`` in two
legs: half the horizon, then the rest (``ONE_LEG`` jobs run in one).
``tests/fixtures/pins.json`` holds, keyed
``<campaign>/<job label>``, each job's ``stats``, ``trace`` (per
simulator: record count, digest and checkpoints) and ``telemetry``.

A drifted stat fails as ``DRIFT <key> <stat>: old -> new``; a drifted
trace as ``TRACE <key> sim <n>: first divergent window: records a–b,
sim-time t0–t1`` (``tools/capture_golden.py --only <campaign>`` at both
commits shows the records); a drifted telemetry stream as
``TELEMETRY <key>: old -> new``.  A traced run whose stats differ from
the untraced run's fails as ``OBSERVER <key> <stat>: untraced ->
traced``: observing a run, or running it in legs, must not change it.
A job without a pin, a pin without a job and a job that failed or
outran its timeout fail by name too.  The pins hold on every kernel,
so each kernel lane runs the same check.  Simulators that live in
shard workers or in ``run_single`` are not traced here: ``city_scale``
and ``city_scale_1p`` pin 0 records, and ``city_scale``'s byte-level
pin is its ``arrival_log_sha1`` stat.

The untraced run also reports ``core.binding.tally``: which side —
compiled twin or Python reference — every slot of every object bound.
The reference is bit-identical to its twin, so no pin can see an object
that quietly bound the reference on the compiled kernel; a job whose
kernel is ``c`` must bind every slot to its twin, one on ``python``
every slot to its reference, and an object that did not fails as
``FALLBACK <key> <class>.<slot>: <n> bound to the <side>``.

Re-record them on purpose, after a deliberate behaviour change, with
``PYTHONPATH=src python tests/test_macro_pins.py [SPEC_NAME ...]``
(no names: every spec; the other pins are kept).  ``pins.json`` also
records the behaviour epoch it was recorded under
(:data:`repro.BEHAVIOUR_EPOCH`), and a test fails while the two differ.
A re-record refuses to overwrite a pin that moved under the epoch it
was recorded by: a deliberate behaviour change bumps the epoch, so
that a stored result can say which rules made it.  After a bump, only
a re-record of every spec may write the new epoch.
"""

import hashlib
import json
import pathlib
import sys
from typing import Any, Dict, List

import pytest

from repro import BEHAVIOUR_EPOCH
from repro.campaign import expand_grid, load_spec, runner
from repro.campaign.pool import iter_pooled
from repro.core import binding
from repro.core.engine import resolve_kernel
from repro.core.trace import TraceDigest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS = sorted((REPO_ROOT / "specs").glob("*.toml"))
PINS = REPO_ROOT / "tests" / "fixtures" / "pins.json"
#: Per-job budget: the slowest job takes about 4 s, untraced plus
#: traced, on the pure-Python kernel, so one still running after this
#: has hung.
TIMEOUT_S = 60.0


#: The key of ``pins.json`` that holds the epoch, not a pin.
EPOCH = "behaviour_epoch"


def pinned_epoch() -> Any:
    return json.loads(PINS.read_text()).get(EPOCH)


def load_pins() -> Dict[str, Dict[str, Any]]:
    """Pin key -> pin."""
    return {key: pin for key, pin in json.loads(PINS.read_text()).items()
            if key != EPOCH}


def canonical(value: Any) -> Any:
    """``value`` as ``pins.json`` holds it (tuples become lists)."""
    return json.loads(json.dumps(value))


def jobs_of(paths: List[pathlib.Path]) -> Dict[str, Dict[str, Any]]:
    """Pin key -> concrete job spec, in spec and grid order."""
    return {f"{spec['campaign']['name']}/{job.label}": job.spec
            for spec in map(load_spec, paths) for job in expand_grid(spec)}


#: One-leg builders: ``fault_storm`` builds its mesh half after its BSS
#: half has run, ``city_cells``' executors take the horizon in one call.
ONE_LEG = ("fault_storm", "city_cells")


def observe(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One job run untraced in one leg and traced in two: its would-be
    pin, plus the traced run's stats under ``traced_stats``."""
    streams: Dict[str, Any] = {}
    binding.tally.clear()
    seen = {"stats": runner.run_job(spec, streams),
            "bindings": [[*key, count] for key, count
                         in sorted(binding.tally.items())]}
    if "telemetry_jsonl" in streams:
        seen["telemetry"] = hashlib.sha1(
            streams["telemetry_jsonl"].encode()).hexdigest()
    digests: List[TraceDigest] = []
    simulator_class = runner.Simulator

    def traced_simulator(*args, **kwargs):
        digests.append(TraceDigest())
        kwargs["trace"] = digests[-1]
        return simulator_class(*args, **kwargs)

    runner.Simulator = traced_simulator
    try:
        # In two legs, half the horizon and then the rest: a job run in
        # legs must be the job run whole.
        horizon = spec["scenario"]["horizon"]
        job = runner.build_job(spec)
        if spec["scenario"]["builder"] not in ONE_LEG:
            job.run(horizon / 2)
        job.run(horizon)
        seen["traced_stats"] = job.stats()
    finally:
        runner.Simulator = simulator_class
    seen["trace"] = [{"records": digest.records,
                      "sha1": digest.hexdigest(),
                      "checkpoints": digest.checkpoints}
                     for digest in digests]
    return canonical(seen)


def observe_all(jobs: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Pin key -> ``(status, payload)`` of :func:`observe` in the pool."""
    tasks = [lambda spec=spec: observe(spec) for spec in jobs.values()]
    return {key: (status, payload) for key, (_index, status, payload)
            in zip(jobs, iter_pooled(tasks, timeout=TIMEOUT_S, jobs=2))}


def drift(key: str, stats: Dict[str, Any], pin: Dict[str, Any],
          tag: str = "DRIFT") -> List[str]:
    """One line per stat whose value moved, appeared or went."""
    def show(side: Dict[str, Any], stat: str) -> str:
        return repr(side[stat]) if stat in side else "<absent>"
    return [f"{tag} {key} {stat}: {show(pin, stat)} -> {show(stats, stat)}"
            for stat in sorted(set(stats) | set(pin))
            if stat not in pin or stat not in stats
            or pin[stat] != stats[stat]]


def divergent_window(pinned: Dict[str, Any], seen: Dict[str, Any]) -> str:
    """The records and sim-time span between the last checkpoint two
    digests share and the first they do not (or the end)."""
    start, since = 0, 0.0
    for (index, time, digest), (_, _, other) in zip(pinned["checkpoints"],
                                                    seen["checkpoints"]):
        if digest != other:
            return f"records {start}–{index}, sim-time {since!r}–{time!r}"
        start, since = index, time
    end = max(pinned["records"], seen["records"])
    return f"records {start}–{end}, sim-time {since!r}–end"


def trace_drift(key: str, traces: List[Dict[str, Any]],
                pinned: List[Dict[str, Any]]) -> List[str]:
    if len(traces) != len(pinned):
        return [f"TRACE {key}: {len(pinned)} simulators -> {len(traces)}"]
    return [f"TRACE {key} sim {index}: first divergent window: "
            + divergent_window(pin, seen)
            for index, (seen, pin) in enumerate(zip(traces, pinned))
            if (seen["records"], seen["sha1"])
            != (pin["records"], pin["sha1"])]


def check(outcomes: Dict[str, Any],
          pins: Dict[str, Dict[str, Any]]) -> List[str]:
    """Every problem with ``outcomes`` against ``pins``, one line each."""
    problems = []
    for key, (status, seen) in outcomes.items():
        if status != "ok":
            problems.append(f"FAILED {key}: " + (
                f"timed out after {TIMEOUT_S:g}s" if status == "timeout"
                else seen))
            continue
        problems.extend(drift(key, seen["traced_stats"], seen["stats"],
                              tag="OBSERVER"))
        pin = pins.get(key)
        if pin is None:
            problems.append(f"NO PIN {key}: record one with PYTHONPATH=src "
                            f"python tests/test_macro_pins.py")
            continue
        problems.extend(drift(key, seen["stats"], pin["stats"]))
        problems.extend(trace_drift(key, seen["trace"], pin["trace"]))
        if seen.get("telemetry") != pin.get("telemetry"):
            problems.append(f"TELEMETRY {key}: {pin.get('telemetry')} -> "
                            f"{seen.get('telemetry')}")
    return problems


def fallbacks(key: str, spec: Dict[str, Any],
              bindings: List[List[Any]]) -> List[str]:
    """One line per class and slot the job bound to the other side
    than its kernel's."""
    kernel = spec["mode"]["kernel"]
    side = "twin" if resolve_kernel(
        None if kernel == "auto" else kernel) == "c" else "reference"
    return [f"FALLBACK {key} {owner}.{slot}: {count} bound to the {bound}"
            for owner, slot, bound, count in bindings if bound != side]


@pytest.fixture(scope="module")
def observed(request) -> Dict[str, Any]:
    """The jobs of every selected spec, observed in one pool (``-k
    city_scale`` runs just that family)."""
    selected = {item.callspec.params["path"] for item in request.session.items
                if getattr(item, "originalname", None)
                in ("test_spec_matches_its_pins",
                    "test_spec_binds_its_kernel_s_side")}
    return observe_all(jobs_of([path for path in SPECS if path in selected]))


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_spec_matches_its_pins(path, observed):
    outcomes = {key: observed[key] for key in jobs_of([path])}
    problems = check(outcomes, load_pins())
    assert problems == [], "\n".join(problems)


@pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
def test_spec_binds_its_kernel_s_side(path, observed):
    problems = []
    for key, spec in jobs_of([path]).items():
        status, seen = observed[key]
        if status == "ok":
            problems.extend(fallbacks(key, spec, seen["bindings"]))
    assert problems == [], "\n".join(problems)


def test_a_fallback_names_the_job_the_class_and_the_slot():
    spec = {"mode": {"kernel": "python"}}
    assert fallbacks("demo/seed=1", spec, [
        ["DcfMac", "phy_rx_end", "reference", 3],
        ["Radio", "arrival_ends", "twin", 2]]) == [
        "FALLBACK demo/seed=1 Radio.arrival_ends: 2 bound to the twin"]


def _trace(records: int, sha1: str, *checkpoints) -> Dict[str, Any]:
    return {"records": records, "sha1": sha1,
            "checkpoints": [list(point) for point in checkpoints]}


def test_every_problem_names_the_job_and_the_stat():
    pinned = _trace(9000, "f", (4096, 0.5, "a"), (8192, 1.25, "b"))
    seen = {"stats": {"rx": 2, "new": 3}, "traced_stats": {"rx": 2, "new": 3},
            "trace": [pinned]}
    outcomes = {
        "demo/seed=1": ("ok", seen),
        "demo/seed=2": ("ok", {**seen, "traced_stats": {"rx": 1, "new": 3}}),
        "demo/seed=3": ("ok", {**seen, "trace": [
            _trace(9000, "x", (4096, 0.5, "a"), (8192, 1.25, "y"))]}),
        "demo/seed=4": ("ok", {**seen, "trace": [_trace(9001, "z", (
            4096, 0.5, "a"), (8192, 1.25, "b"))], "telemetry": "t"}),
        "demo/seed=5": ("ok", {**seen, "trace": [pinned, pinned]}),
        "demo/seed=6": ("ok", seen),
        "demo/seed=7": ("timeout", None),
        "demo/seed=8": ("error", "RuntimeError: boom")}
    pins = {f"demo/seed={n}": {"stats": {"rx": 2, "new": 3},
                               "trace": [pinned]} for n in range(1, 6)}
    pins["demo/seed=1"] = {"stats": {"rx": 1, "gone": 0}, "trace": [pinned]}
    assert check(outcomes, pins) == [
        "DRIFT demo/seed=1 gone: 0 -> <absent>",
        "DRIFT demo/seed=1 new: <absent> -> 3",
        "DRIFT demo/seed=1 rx: 1 -> 2",
        "OBSERVER demo/seed=2 rx: 2 -> 1",
        "TRACE demo/seed=3 sim 0: first divergent window: "
        "records 4096–8192, sim-time 0.5–1.25",
        "TRACE demo/seed=4 sim 0: first divergent window: "
        "records 8192–9001, sim-time 1.25–end",
        "TELEMETRY demo/seed=4: None -> t",
        "TRACE demo/seed=5: 1 simulators -> 2",
        "NO PIN demo/seed=6: record one with PYTHONPATH=src python "
        "tests/test_macro_pins.py",
        "FAILED demo/seed=7: timed out after 60s",
        "FAILED demo/seed=8: RuntimeError: boom"]


def test_the_pins_were_recorded_under_this_behaviour():
    assert pinned_epoch() == BEHAVIOUR_EPOCH, (
        f"pins.json was recorded under behaviour {pinned_epoch()}, this "
        f"build is behaviour {BEHAVIOUR_EPOCH}: re-record the pins "
        f"(PYTHONPATH=src python tests/test_macro_pins.py)")


def refusals(outcomes: Dict[str, Any], pins: Dict[str, Dict[str, Any]],
             recorded_under: Any) -> List[str]:
    """Why a re-record must not overwrite ``pins`` with ``outcomes``:
    a pinned job moved, and the pins were recorded under the behaviour
    this build still is; or the epoch moved and the re-record would keep
    a pin it did not re-run, which the new epoch would then claim.  A
    job without a pin is new, not moved."""
    if recorded_under != BEHAVIOUR_EPOCH:
        kept = sorted(set(pins) - set(outcomes))
        if not kept:
            return []
        return [f"KEPT {key}" for key in kept] + [
            f"REFUSED: pins.json was recorded under behaviour "
            f"{recorded_under}, this build is behaviour {BEHAVIOUR_EPOCH}; "
            f"re-record every spec (no names), so that no pin of the old "
            f"behaviour is labelled with the new one"]
    moved = check({key: outcome for key, outcome in outcomes.items()
                   if key in pins}, pins)
    if not moved:
        return []
    return moved + [
        f"REFUSED: these pins moved under behaviour {BEHAVIOUR_EPOCH}; a "
        f"deliberate behaviour change bumps repro.BEHAVIOUR_EPOCH, and its "
        f"CHANGES.md entry says why"]


def test_a_moved_pin_is_not_re_recorded_under_its_own_behaviour():
    pin = {"stats": {"rx": 2}, "trace": [_trace(10, "a")]}
    same = ("ok", {**pin, "traced_stats": pin["stats"]})
    moved = ("ok", {"stats": {"rx": 3}, "traced_stats": {"rx": 3},
                    "trace": [_trace(11, "b")]})
    pins = {"demo/seed=1": pin}
    assert refusals({"demo/seed=1": moved}, pins, BEHAVIOUR_EPOCH) == [
        "DRIFT demo/seed=1 rx: 2 -> 3",
        "TRACE demo/seed=1 sim 0: first divergent window: records 0–11, "
        "sim-time 0.0–end",
        f"REFUSED: these pins moved under behaviour {BEHAVIOUR_EPOCH}; a "
        f"deliberate behaviour change bumps repro.BEHAVIOUR_EPOCH, and its "
        f"CHANGES.md entry says why"]
    # A bumped epoch lets it through; so does a pin that did not move,
    # and a job that has no pin yet.
    assert refusals({"demo/seed=1": moved}, pins, BEHAVIOUR_EPOCH - 1) == []
    assert refusals({"demo/seed=1": same, "demo/seed=2": moved}, pins,
                    BEHAVIOUR_EPOCH) == []
    # Under a bumped epoch, a partial re-record would label the pins it
    # did not re-run with the new epoch: it is refused, by pin.
    other = {"demo/seed=1": pin, "other/seed=1": pin}
    assert refusals({"demo/seed=1": moved}, other, BEHAVIOUR_EPOCH - 1) == [
        "KEPT other/seed=1",
        f"REFUSED: pins.json was recorded under behaviour "
        f"{BEHAVIOUR_EPOCH - 1}, this build is behaviour {BEHAVIOUR_EPOCH}; "
        f"re-record every spec (no names), so that no pin of the old "
        f"behaviour is labelled with the new one"]


def test_every_pin_has_a_committed_job():
    jobs = [f"{spec['campaign']['name']}/{job.label}"
            for spec in map(load_spec, SPECS) for job in expand_grid(spec)]
    assert len(set(jobs)) == len(jobs), "two specs share a campaign name"
    assert sorted(set(load_pins()) - set(jobs)) == []


def test_every_builder_runs_in_a_committed_spec():
    used = {load_spec(path)["scenario"]["builder"] for path in SPECS}
    assert sorted(set(runner.BUILDERS) - used) == []


def record(names: List[str]) -> None:
    """Re-record the pins of the named specs (all when none are named);
    keep the others, drop pins whose job no longer exists."""
    paths = [path for path in SPECS if not names or path.stem in names]
    unknown = set(names) - {path.stem for path in paths}
    if unknown:
        raise SystemExit(f"no spec named {sorted(unknown)} under specs/")
    jobs = jobs_of(SPECS)
    pins = {key: pin for key, pin in
            (load_pins() if PINS.exists() else {}).items() if key in jobs}
    outcomes = observe_all(jobs_of(paths))
    refused = refusals(outcomes, pins,
                       pinned_epoch() if PINS.exists() else None)
    if refused:
        raise SystemExit("\n".join(refused))
    for key, (status, seen) in outcomes.items():
        # Against itself, a job can only fail or change under tracing.
        problems = check({key: (status, seen)}, {key: seen})
        if problems:
            raise SystemExit("\n".join(problems))
        pins[key] = {name: seen[name] for name in ("stats", "trace",
                                                   "telemetry")
                     if name in seen}
        print(f"recorded {key}")
    PINS.write_text(json.dumps({EPOCH: BEHAVIOUR_EPOCH, **pins}, indent=2,
                               sort_keys=True) + "\n")
    print(f"pins -> {PINS}")


if __name__ == "__main__":
    record(sys.argv[1:])
