"""Opt-in perf tier: the telemetry overhead contract.

Two claims, both best-of-N wall-clock with the A and B runs
*interleaved* (A, B, A, B, ...): min-of-repeats discards scheduler
noise, and interleaving cancels slow load/thermal drift that would
bias two sequential timing blocks.

* The *disabled* path is free: a macro carrying its (disabled) hub must
  run within 5% of the same macro with the hub construction stubbed out
  entirely.  This is the production posture CI smokes — the null
  registry, null metrics and refusing sampler must cost nothing
  measurable.
* The *enabled* path at the default 50 ms sampling interval is cheap:
  instrumentation (wraps, probes, sampling, span bookkeeping, the
  final edge sample) within 15% (loose because CI machines are
  noisy; ``python3 -m bench``'s ``telemetry.armed_ratio`` measures
  it).  The final JSONL serialization is deliberately excluded — it
  is O(records exported), not O(events simulated).
"""

import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                       / "benchmarks"))

from perf import macro as macro_mod  # noqa: E402

pytestmark = pytest.mark.perf

SCALE = 0.25
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
    def finish(self):
        return self


def test_disabled_telemetry_is_free():
    original = macro_mod._install_telemetry

    def _with_hub():
        macro_mod._install_telemetry = original
        macro_mod.dcf_saturation(SCALE)

    def _hub_free():
        macro_mod._install_telemetry = lambda *args, **kwargs: _NullHub()
        try:
            macro_mod.dcf_saturation(SCALE)
        finally:
            macro_mod._install_telemetry = original

    try:
        baseline, stubbed = _interleaved_best(_with_hub, _hub_free)
    finally:
        macro_mod._install_telemetry = original
    assert baseline <= stubbed * 1.05, \
        (f"disabled-telemetry path costs "
         f"{(baseline / stubbed - 1) * 100:.1f}% over the "
         f"hub-free run (budget 5%)")


def test_enabled_telemetry_overhead_is_bounded():
    original = macro_mod._telemetry_extras

    def _no_export(hubs):
        for hub in hubs:
            hub.finish()  # final sample + span closure still timed
        return {}

    def _disabled():
        macro_mod.dcf_saturation(SCALE)

    def _enabled():
        macro_mod._telemetry_extras = _no_export
        try:
            macro_mod.dcf_saturation(SCALE, telemetry=True)
        finally:
            macro_mod._telemetry_extras = original

    try:
        disabled, enabled = _interleaved_best(_disabled, _enabled)
    finally:
        macro_mod._telemetry_extras = original
    assert enabled <= disabled * 1.15, \
        (f"enabled-telemetry instrumentation costs "
         f"{(enabled / disabled - 1) * 100:.1f}% at the default "
         f"sampling interval (budget 15%)")
