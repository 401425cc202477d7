"""What telemetry costs, counted, not timed.

``specs/city_scale_1p.toml`` runs the single-process city oracle with
``mode.telemetry`` off.  Run under ``cProfile``, it makes no Python call
into ``repro/telemetry/``: no hub, registry or sampler is built, so
there is nothing to construct, wire, sample or finish.  The same job
armed, at a tenth of the horizon, is the control that shows the
profile sees those calls when they happen.  Armed,
``specs/dcf_saturation.toml`` makes a pinned number of them, from wiring
the hub to exporting its stream, with one call of the medium probe's
transmit observer per frame.
Each count is a pure function of the seed, so unlike the wall-clock
perf tier (``tests/telemetry/test_overhead.py``) it cannot be moved by
load on the machine.
"""

import cProfile
import json
import os
import pstats
import sys
from collections import Counter

import pytest

import repro.telemetry.probes  # noqa: F401 -- no profile counts an import
from repro.campaign import run_job
from repro.core.engine import ckernel_available

TELEMETRY = os.path.join("repro", "telemetry", "")

#: Python calls into ``repro/telemetry/`` of the armed ``dcf_saturation``
#: job, by interpreter; the kernel does not move it.  py3.12 inlines
#: list and dict comprehensions (PEP 709): the 475 calls py3.11 counts
#: into the registry's and the exporter's are none there.
ARMED_CALLS = {(3, 11): 11_135, (3, 12): 10_660}

KERNELS = ["python", pytest.param("c", marks=pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)"))]


def _telemetry_calls(job, streams=None):
    """{function name: calls} into ``repro/telemetry/`` running ``job``."""
    profile = cProfile.Profile()
    profile.runcall(run_job, job, streams)
    calls = Counter()
    for (name, _line, function), (_primitive, count, *_rest) \
            in pstats.Stats(profile).stats.items():
        if TELEMETRY in name:
            calls[function] += count
    return calls


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_telemetry_off_run_calls_nothing_in_telemetry(spec_job, kernel):
    off = spec_job("city_scale_1p", {"mode.kernel": kernel})
    armed = spec_job("city_scale_1p", {
        "mode.kernel": kernel, "mode.telemetry": True,
        "scenario.horizon": off["scenario"]["horizon"] / 10})
    assert _telemetry_calls(armed), \
        "no call was seen armed: the profile tests nothing"
    assert _telemetry_calls(off) == {}


@pytest.mark.parametrize("kernel", KERNELS)
def test_an_armed_run_makes_a_counted_number_of_telemetry_calls(
        spec_job, kernel):
    streams = {}
    calls = _telemetry_calls(spec_job("dcf_saturation", {
        "mode.kernel": kernel, "mode.telemetry": True}), streams)
    frames = sum(record["value"] for record in map(
        json.loads, streams["telemetry_jsonl"].splitlines())
        if record["type"] == "metric"
        and (record["subsystem"], record["name"]) == ("medium", "frames"))
    assert frames > 0 and calls["_observe"] == frames
    assert calls["wants"] == 0
    pinned = ARMED_CALLS.get(sys.version_info[:2])
    if pinned is None:
        pytest.skip("no armed-call pin for this interpreter")
    assert sum(calls.values()) == pinned
