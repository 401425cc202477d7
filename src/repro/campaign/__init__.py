"""Declarative campaign runner: simulation-as-a-service.

The production story is not one big run but *many* — parameter sweeps,
seed ensembles, regression matrices.  This package turns experiments
into data:

* :mod:`~repro.campaign.spec` — the TOML/dict scenario schema and its
  validating loader (errors name the exact spec path),
* :mod:`~repro.campaign.grid` — cartesian sweep + seed-ensemble
  expansion with content-addressed (sha1) job identities,
* :mod:`~repro.campaign.manifest` — the crash-safe resumable ledger
  (an fsynced journal; a killed campaign resumes where it stopped),
* :mod:`~repro.campaign.runner` — executes one concrete job against
  the existing scenario builders,
* :mod:`~repro.campaign.store` — the byte-deterministic columnar
  JSONL/CSV result store,
* :mod:`~repro.campaign.executor` — fan-out, persistence and resume,
* :mod:`~repro.campaign.pool` — the fork-once worker pool with
  per-task timeouts, shared with ``tools/run_bench.py``.

``tools/run_campaign.py`` is the command-line face;
:mod:`repro.analysis.campaign` aggregates the result store into
mean/CI ensemble tables and sweep curves.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "executor": ("CampaignResult", "run_campaign"),
    "grid": ("Job", "expand_grid", "grid_sha1"),
    "manifest": ("Manifest",),
    "runner": ("BUILDERS", "run_job"),
    "spec": ("SCHEMA_DOC", "SpecError", "canonical_json", "load_spec",
        "spec_sha1", "validate_spec"),
    "store": ("StoreWriter", "csv_text", "read_store", "row_line"),
})
