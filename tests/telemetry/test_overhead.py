"""Opt-in perf tier: the telemetry overhead contract.

* The *disabled* path is free, by construction rather than by a
  clock: with telemetry off, neither executor builds a hub — no
  ``Telemetry`` is constructed in the process or in a shard worker —
  and a fresh interpreter that runs both never loads
  :mod:`repro.telemetry`.  This is the production posture CI smokes.
* The *enabled* path at the default 50 ms sampling interval is cheap:
  ``dcf_saturation`` under ``mode.telemetry`` — observers, probes,
  sampling, span bookkeeping, the final edge sample — within 15% of
  the unarmed job (loose because CI machines are noisy;
  ``python3 -m bench``'s ``telemetry.armed_ratio`` measures it),
  best-of-N wall-clock with the two runs *interleaved* (A, B, A, B,
  ...): min-of-repeats discards scheduler noise, and interleaving
  cancels slow load/thermal drift that would bias two sequential
  timing blocks.  The final JSONL serialization is deliberately
  excluded — it is O(records exported), not O(events simulated).
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import scenarios
from repro.campaign import run_job, runner
from repro.parallel import run_sharded, run_single
from repro.telemetry import probes

pytestmark = pytest.mark.perf

REPEATS = 5


def _interleaved_best(fn_a, fn_b, repeats=REPEATS):
    """Best-of-``repeats`` for two thunks, alternating A and B."""
    best_a = best_b = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        elapsed = time.perf_counter() - start
        if best_a is None or elapsed < best_a:
            best_a = elapsed
        start = time.perf_counter()
        fn_b()
        elapsed = time.perf_counter() - start
        if best_b is None or elapsed < best_b:
            best_b = elapsed
    return best_a, best_b


#: Both executors with telemetry off, in a fresh interpreter; prints
#: the ``repro.telemetry`` modules loaded afterwards.
_BOTH_EXECUTORS_OFF = """
import json, sys
from repro import scenarios
from repro.parallel import run_sharded, run_single

cells = scenarios.build_city_cells(bss_count=2, stations_per_bss=2)
options = dict(seed=3, horizon=0.05,
               propagation_factory=scenarios.city_propagation)
run_single(cells, **options)
run_sharded(cells, workers=2, **options)
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("repro.telemetry"))))
"""


def test_disabled_telemetry_is_free(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a telemetry hub was built with telemetry off")

    # A shard worker forks from this process, so it refuses too.
    monkeypatch.setattr(probes.Telemetry, "__init__", refuse)
    cells = scenarios.build_city_cells(bss_count=2, stations_per_bss=2)
    options = dict(seed=3, horizon=0.05,
                   propagation_factory=scenarios.city_propagation)
    assert run_single(cells, **options)["events"] > 0
    assert run_sharded(cells, workers=2, **options)["events"] > 0

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(scenarios.__file__))]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", _BOTH_EXECUTORS_OFF],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_enabled_telemetry_overhead_is_bounded(spec_job, monkeypatch):
    def _no_export(hubs):
        for hub in hubs:
            hub.finish()  # final sample + span closure still timed
        return {}

    monkeypatch.setattr(runner, "_telemetry_streams", _no_export)
    disabled_job = spec_job("dcf_saturation")
    enabled_job = spec_job("dcf_saturation", {"mode.telemetry": True})
    disabled, enabled = _interleaved_best(lambda: run_job(disabled_job),
                                          lambda: run_job(enabled_job))
    assert enabled <= disabled * 1.15, \
        (f"enabled-telemetry instrumentation costs "
         f"{(enabled / disabled - 1) * 100:.1f}% at the default "
         f"sampling interval (budget 15%)")
