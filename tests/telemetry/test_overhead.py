"""Opt-in perf tier: the telemetry overhead contract.

Two claims, both best-of-N wall-clock with the A and B runs
*interleaved* (A, B, A, B, ...): min-of-repeats discards scheduler
noise, and interleaving cancels slow load/thermal drift that would
bias two sequential timing blocks.

* The *disabled* path is free: the single-process city oracle
  (``specs/city_scale_1p.toml``), which always builds a (disabled) hub,
  must run within 5% of the same job with the hub construction stubbed
  out entirely.  This is the production posture CI smokes — the null
  registry, null metrics and refusing sampler must cost nothing
  measurable.
* The *enabled* path at the default 50 ms sampling interval is cheap:
  ``dcf_saturation`` under ``mode.telemetry`` — wraps, probes,
  sampling, span bookkeeping, the final edge sample — within 15% of
  the unarmed job (loose because CI machines are noisy;
  ``python3 -m bench``'s ``telemetry.armed_ratio`` measures it).  The
  final JSONL serialization is deliberately excluded — it is
  O(records exported), not O(events simulated).
"""

import time

import pytest

from repro.campaign import run_job, runner
from repro.parallel import executor

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


class _NullHub:
    """The hub with every call stubbed out: what the run costs without
    one."""

    def __init__(self, *args, **kwargs):
        pass

    def _self(self, *args, **kwargs):
        return self

    instrument_kernel = instrument_medium = instrument_radios = _self
    install = finish = _self


def test_disabled_telemetry_is_free(spec_job, monkeypatch):
    job = spec_job("city_scale_1p")
    hub_class = executor.Telemetry

    def _with_hub():
        monkeypatch.setattr(executor, "Telemetry", hub_class)
        run_job(job)

    def _hub_free():
        monkeypatch.setattr(executor, "Telemetry", _NullHub)
        run_job(job)

    baseline, stubbed = _interleaved_best(_with_hub, _hub_free)
    assert baseline <= stubbed * 1.05, \
        (f"disabled-telemetry path costs "
         f"{(baseline / stubbed - 1) * 100:.1f}% over the "
         f"hub-free run (budget 5%)")


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
