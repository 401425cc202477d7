"""Sharded parallel execution with conservative-lookahead synchronization.

The package splits a scenario into *cells* (:class:`CellSpec`), derives
which cells can possibly exchange energy (channel orthogonality + the
energy-floor reachability probe, :func:`partition_cells`), and runs the
resulting shards in worker processes that synchronize only through
boundary arrivals under a conservative lookahead equal to the minimum
cross-shard propagation delay (:func:`run_sharded`).
:func:`run_single` executes the identical cell list on one kernel — the
differential reference the equivalence tests compare against.

See README, "Sharded execution", for the determinism contract and the
partitioning rules.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "executor": ("ArrivalLog", "CellBuild", "run_sharded", "run_single"),
    "partition": ("CellSpec", "Coupling", "ShardPlan", "find_couplings",
        "partition_cells"),
    "shard": ("BoundaryRecord", "ShardMedium"),
})
