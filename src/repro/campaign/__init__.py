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

from .executor import CampaignResult, run_campaign
from .grid import Job, expand_grid, grid_sha1
from .manifest import Manifest
from .runner import BUILDERS, run_job
from .spec import (SCHEMA_DOC, SpecError, canonical_json, load_spec,
                   spec_sha1, validate_spec)
from .store import StoreWriter, csv_text, read_store, row_line

__all__ = [
    "BUILDERS",
    "CampaignResult",
    "Job",
    "Manifest",
    "SCHEMA_DOC",
    "SpecError",
    "StoreWriter",
    "canonical_json",
    "csv_text",
    "expand_grid",
    "grid_sha1",
    "load_spec",
    "read_store",
    "row_line",
    "run_campaign",
    "run_job",
    "spec_sha1",
    "validate_spec",
]
