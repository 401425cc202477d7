"""Shared helpers for the benchmark/experiment harness.

Every benchmark regenerates one table or figure from the source text.
Rendered tables are printed and also written to
``benchmarks/results/<experiment>.txt`` so the numbers can be
regenerated verbatim.
"""

import pathlib

import pytest

from repro.mac.addresses import reset_allocator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_allocator()
    yield
    reset_allocator()


@pytest.fixture
def record_result():
    """Write (and echo) an experiment's rendered output."""

    def _record(experiment_id: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _record
