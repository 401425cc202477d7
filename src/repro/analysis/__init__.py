"""Metrics, airtime, mesh paths, adversarial impact, table rendering."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "adversary": ("AttackImpact", "aggregate_impact", "duty_cycle_sweep",
        "per_station_impact", "render_duty_curve", "render_impact_table",
        "render_pdr_grid", "spatial_pdr_grid"),
    "airtime": ("AirtimeReport", "SourceAirtime"),
    "campaign": ("EnsembleStat", "Mismatch", "compare_stats",
        "differential_gate", "ensemble", "ensemble_table", "group_rows",
        "render_ensemble_table", "render_sweep_curve", "sweep_curve",
        "t_critical"),
    "mesh": ("aggregate_mesh_counters", "connectivity_graph",
        "mesh_hop_histogram", "path_stretch", "per_link_airtime",
        "per_link_load", "shortest_hop_count"),
    "metrics": ("aggregate_throughput_bps", "bianchi_saturation_throughput",
        "bianchi_tau", "delay_percentiles", "jain_fairness"),
    "resilience": ("ReassociationProbe", "pdr_timeline", "recovery_time",
        "route_repair_time", "steady_state_pdr"),
    "tables": ("format_value", "render_series", "render_table"),
})
