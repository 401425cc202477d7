"""Executor end-to-end: determinism, resume, partial invocations."""

import pytest

from repro import BEHAVIOUR_EPOCH
from repro.campaign import SpecError, read_store, run_campaign, validate_spec

from .conftest import small_spec


def run(tmp_path, sub="out", **kwargs):
    spec = validate_spec(kwargs.pop("spec", small_spec()))
    return run_campaign(spec, tmp_path / sub, **kwargs)


def store_bytes(result):
    return result.store_path.read_bytes(), result.csv_path.read_bytes()


def test_end_to_end(tmp_path):
    result = run(tmp_path)
    assert result.ok
    assert result.ran == 4 and result.reused == 0
    assert [row["status"] for row in result.rows] == ["done"] * 4
    for row in result.rows:
        assert row["stats"]["rx_frames"] > 0
        assert row["stats"]["events"] > 0
    assert result.store_path.exists() and result.csv_path.exists()
    assert len(read_store(result.store_path)) == 4


def test_jobs_fanout_is_byte_identical_to_serial(tmp_path):
    serial = run(tmp_path, "serial", jobs=1)
    fanned = run(tmp_path, "fanned", jobs=2, timeout=120.0)
    assert store_bytes(serial) == store_bytes(fanned)


def test_two_runs_same_bytes(tmp_path):
    first = run(tmp_path, "a")
    second = run(tmp_path, "b")
    assert store_bytes(first) == store_bytes(second)


def test_resume_reuses_done_jobs(tmp_path):
    partial = run(tmp_path, "out", max_jobs=2)
    assert partial.ran == 2
    statuses = [row["status"] for row in partial.rows]
    assert statuses == ["done", "done", "pending", "pending"]

    resumed = run(tmp_path, "out")
    assert resumed.ran == 2 and resumed.reused == 2
    uninterrupted = run(tmp_path, "oneshot")
    assert store_bytes(resumed) == store_bytes(uninterrupted)


def test_only_filters_labels_but_keeps_row_shape(tmp_path):
    result = run(tmp_path, "out", only=["*seed=3*"])
    assert result.ran == 2
    by_status = [row["status"] for row in result.rows]
    assert by_status == ["done", "pending", "done", "pending"]

    with pytest.raises(ValueError, match="unknown job label"):
        run(tmp_path, "out2", only=["*seed=99*"])


def test_partial_invocations_compose_to_identical_store(tmp_path):
    run(tmp_path, "sliced", only=["*seed=4*"])
    sliced = run(tmp_path, "sliced")  # picks up the rest
    oneshot = run(tmp_path, "oneshot")
    assert store_bytes(sliced) == store_bytes(oneshot)


def test_failing_job_becomes_failure_row_not_crash(tmp_path):
    # mesh scenarios reject saturate traffic at run time — a per-job
    # error must become a failed row, not poison the campaign.
    spec = small_spec(
        scenario={"builder": "mesh_chain", "horizon": 0.1, "seed": 1,
                  "params": {"nodes": 3}},
        traffic={"kind": "saturate"}, sweep={}, seeds={"count": 2})
    result = run(tmp_path, spec=spec)
    assert not result.ok
    assert len(result.failed) == 2
    rows = read_store(result.store_path)
    assert all(row["status"] == "failed" for row in rows)
    assert all("traffic.kind" in row["error"] for row in rows)

    # A retry (e.g. after fixing an environmental cause) re-runs them.
    again = run(tmp_path, spec=spec)
    assert again.ran == 2


def test_fresh_discards_manifest(tmp_path):
    run(tmp_path, "out", max_jobs=2)
    result = run(tmp_path, "out", fresh=True)
    assert result.ran == 4 and result.reused == 0


def test_a_resume_under_another_behaviour_refuses_by_name(tmp_path,
                                                         monkeypatch):
    """Rows made by behaviour 0 must not be reused by this build: the
    resume stops before running anything, and ``fresh=True`` starts
    over."""
    from repro.campaign import manifest
    monkeypatch.setattr(manifest, "BEHAVIOUR_EPOCH", 0)
    run(tmp_path, "out", max_jobs=2)
    monkeypatch.undo()
    path = tmp_path / "out" / "unit.manifest.json"
    journal = path.read_bytes()
    with pytest.raises(SpecError, match=(
            f"written by behaviour 0, this build is {BEHAVIOUR_EPOCH}; "
            f"rerun with fresh=True")):
        run(tmp_path, "out")
    assert path.read_bytes() == journal
    assert run(tmp_path, "out", fresh=True).ran == 4


def test_timeout_produces_failure_row(tmp_path):
    spec = small_spec()
    spec["scenario"] = dict(spec["scenario"], horizon=30.0)
    spec["sweep"] = {}
    spec["seeds"] = {"count": 1}
    result = run(tmp_path, spec=spec, timeout=0.05)
    assert not result.ok
    rows = read_store(result.store_path)
    assert rows[0]["status"] == "failed"
    assert "timed out" in rows[0]["error"]
