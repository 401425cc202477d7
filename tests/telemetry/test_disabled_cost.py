"""A disabled telemetry hub costs O(1), counted, not timed.

``specs/city_scale_1p.toml`` runs the single-process city oracle, which
always builds a hub and, unarmed, leaves it disabled.  Run under
``cProfile`` at the spec's horizon and at half of it, the Python calls
into ``repro/telemetry/`` must be the same: what the hub costs is its
construction and wiring, not a sample, a tick or a wrapper per event.
The count is a pure function of the seed, so unlike the wall-clock
perf tier (``tests/telemetry/test_overhead.py``) it cannot be moved by
load on the machine.
"""

import cProfile
import os
import pstats

import pytest

from repro.campaign import run_job
from repro.core.engine import ckernel_available
from repro.parallel import executor  # noqa: F401  (imports the hub's modules)

TELEMETRY = os.path.join("repro", "telemetry", "")


def _telemetry_calls(job):
    profile = cProfile.Profile()
    profile.runcall(run_job, job)
    return {f"{name}:{line}:{function}": calls
            for (name, line, function), (_primitive, calls, *_rest)
            in pstats.Stats(profile).stats.items() if TELEMETRY in name}


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_a_disabled_hub_costs_the_same_at_any_horizon(spec_job, kernel):
    if kernel == "c" and not ckernel_available():
        pytest.skip("compiled kernel not built "
                    "(run: python tools/build_kernel.py)")
    whole = spec_job("city_scale_1p", {"mode.kernel": kernel})
    horizon = whole["scenario"]["horizon"]
    half = spec_job("city_scale_1p", {"mode.kernel": kernel,
                                      "scenario.horizon": horizon / 2})
    calls = _telemetry_calls(whole)
    assert calls, "no telemetry call was seen: the row tests nothing"
    assert calls == _telemetry_calls(half)
