"""Telemetry off costs nothing in telemetry, counted, not timed.

``specs/city_scale_1p.toml`` runs the single-process city oracle with
``mode.telemetry`` off.  Run under ``cProfile``, it makes no Python call
into ``repro/telemetry/``: no hub, registry or sampler is built, so
there is nothing to construct, wire, sample or finish.  The same job
armed, at a tenth of the horizon, is the control that shows the
profile sees those calls when they happen.  The count is a pure
function of the seed, so unlike the wall-clock perf tier
(``tests/telemetry/test_overhead.py``) it cannot be moved by load on
the machine.
"""

import cProfile
import os
import pstats

import pytest

from repro.campaign import run_job
from repro.core.engine import ckernel_available

TELEMETRY = os.path.join("repro", "telemetry", "")


def _telemetry_calls(job):
    profile = cProfile.Profile()
    profile.runcall(run_job, job)
    return {f"{name}:{line}:{function}": calls
            for (name, line, function), (_primitive, calls, *_rest)
            in pstats.Stats(profile).stats.items() if TELEMETRY in name}


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_a_telemetry_off_run_calls_nothing_in_telemetry(spec_job, kernel):
    if kernel == "c" and not ckernel_available():
        pytest.skip("compiled kernel not built "
                    "(run: python tools/build_kernel.py)")
    off = spec_job("city_scale_1p", {"mode.kernel": kernel})
    armed = spec_job("city_scale_1p", {
        "mode.kernel": kernel, "mode.telemetry": True,
        "scenario.horizon": off["scenario"]["horizon"] / 10})
    assert _telemetry_calls(armed), \
        "no call was seen armed: the profile tests nothing"
    assert _telemetry_calls(off) == {}
