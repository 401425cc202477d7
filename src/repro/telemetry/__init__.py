"""Unified observability: sim-time metrics, spans, probes, exporters.

Quick start::

    telemetry = Telemetry(sim, enabled=True)
    telemetry.instrument_kernel().instrument_medium(medium)
    telemetry.instrument_macs(macs).instrument_radios(radios)
    telemetry.install()
    sim.run(until=horizon)
    telemetry.finish()
    print(telemetry.sim_jsonl())      # byte-identical run-to-run

``Telemetry(sim, enabled=False)`` is the null hub: every probe
short-circuits and the simulation runs the uninstrumented path
byte-identically — the zero-overhead contract inherited from
:class:`~repro.core.trace.TraceLog`.

Sim-time metrics (the default) are part of the determinism contract;
wall-clock metrics (``wall=True``) live in a separate stream that
``tools/capture_golden.py`` and the spec pin check never compare.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "export": ("parse_jsonl", "render_table", "summary_table", "to_jsonl"),
    "metrics": ("CounterMetric", "GaugeMetric", "HistogramMetric",
        "MetricsRegistry", "NULL_METRIC", "PeriodicSampler", "format_key",
        "make_key"),
    "probes": ("KernelDispatchProbe", "MacFleetProbe", "MediumProbe",
        "RadioFleetProbe", "Telemetry", "record_fault_spans"),
    "spans": ("FrameSpanTracker", "Span", "SpanLog"),
})
