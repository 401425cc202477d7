"""Metrics, mesh paths, adversarial impact, resilience, table rendering."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "adversary": ("AttackImpact", "aggregate_impact", "duty_cycle_sweep",
        "per_station_impact", "render_duty_curve", "render_impact_table",
        "render_pdr_grid", "spatial_pdr_grid"),
    "mesh": ("aggregate_mesh_counters", "connectivity_graph",
        "path_stretch", "per_link_load", "shortest_hop_count"),
    "metrics": ("bianchi_saturation_throughput", "bianchi_tau"),
    "resilience": ("ReassociationProbe", "pdr_timeline", "recovery_time",
        "route_repair_time", "steady_state_pdr"),
    "tables": ("format_value", "render_series", "render_table"),
})
