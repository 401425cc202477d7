"""Resume under the journal: a run cut between two records, and one cut
*inside* a record, both end in the bytes an uninterrupted run writes."""

import pytest

from repro.campaign import run_campaign, validate_spec

from .conftest import small_spec
from .test_crash_safety import SPEC_TOML, run_cli

STORE = ("crashtest.results.jsonl", "crashtest.results.csv")


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "crashtest.toml"
    path.write_text(SPEC_TOML)
    return path


@pytest.fixture
def reference(tmp_path, repo_root, spec_file):
    """The store of a run nobody interrupted (jobs=1)."""
    clean = run_cli(repo_root, spec_file, tmp_path / "oneshot")
    assert clean.returncode == 0, clean.stderr
    return [(tmp_path / "oneshot" / name).read_bytes() for name in STORE]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("torn_bytes, summary", [
    (0, "2 ran, 2 reused"),   # killed between two records
    (7, "3 ran, 1 reused"),   # killed mid-append: the 2nd record is torn
])
def test_interrupted_then_resumed_is_byte_identical(
        tmp_path, repo_root, spec_file, reference, jobs, torn_bytes,
        summary):
    out = tmp_path / "interrupted"
    fan_out = ("--jobs", str(jobs))
    killed = run_cli(repo_root, spec_file, out, *fan_out, crash_after=2)
    assert killed.returncode == 23, killed.stderr
    manifest = out / "crashtest.manifest.json"
    whole = manifest.read_bytes()
    assert whole.count(b"\n") == 3  # header + 2 records, each terminated
    manifest.write_bytes(whole[:len(whole) - torn_bytes])

    resumed = run_cli(repo_root, spec_file, out, *fan_out)
    assert resumed.returncode == 0, resumed.stderr
    assert summary in resumed.stdout
    assert [(out / name).read_bytes() for name in STORE] == reference
    # The torn record was cut away before anything was appended.
    assert manifest.read_bytes().count(b"\n") == 5
    assert manifest.read_bytes().startswith(
        whole if not torn_bytes else whole[:whole.rindex(b"\n", 0, -1) + 1])


@pytest.mark.parametrize("jobs", [1, 2])
def test_resuming_a_finished_campaign_touches_nothing(tmp_path, jobs):
    spec = validate_spec(small_spec())
    first = run_campaign(spec, tmp_path, jobs=jobs)
    journal = first.manifest_path.read_bytes()
    store = first.store_path.read_bytes(), first.csv_path.read_bytes()

    again = run_campaign(spec, tmp_path, jobs=jobs)
    assert (again.ran, again.reused) == (0, 4)
    assert again.manifest_path.read_bytes() == journal
    assert (again.store_path.read_bytes(),
            again.csv_path.read_bytes()) == store
