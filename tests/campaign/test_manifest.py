"""Manifest persistence: the append-only journal (format 2), replay,
the torn-tail rule, and everything that must be reported, not skipped."""

import json

import pytest

from repro.campaign import Manifest, SpecError

GRID = "g" * 40


def journal(tmp_path, *records):
    """A journal holding ``records`` (``(key, row)`` pairs), and its
    path."""
    path = tmp_path / "c.manifest.json"
    manifest = Manifest.open(path, "c", GRID)
    for key, row in records:
        manifest.record_done(key, row)
    return path


def test_round_trip(tmp_path):
    path = tmp_path / "c.manifest.json"
    manifest = Manifest.open(path, "c", GRID)
    manifest.record_done("k1", {"x": 1})
    manifest.record_failed("k2", "boom")

    reopened = Manifest.open(path, "c", GRID)
    assert reopened.is_done("k1")
    assert reopened.row("k1") == {"x": 1}
    assert reopened.status("k2") == "failed"
    assert reopened.jobs["k2"]["error"] == "boom"
    assert reopened.counts() == {"done": 1, "failed": 1}
    assert reopened.jobs == manifest.jobs


def test_journal_is_a_header_then_one_line_per_record(tmp_path):
    path = journal(tmp_path, ("k1", {"x": 1}), ("k2", {"x": 2}))
    header, *records = [json.loads(line)
                        for line in path.read_text().splitlines()]
    assert header == {"format": 2, "campaign": "c", "grid_sha1": GRID}
    assert [record["key"] for record in records] == ["k1", "k2"]
    assert path.read_bytes().endswith(b"\n")


def test_every_record_persists_immediately(tmp_path):
    path = tmp_path / "c.manifest.json"
    manifest = Manifest.open(path, "c", GRID)
    for count in range(1, 4):
        manifest.record_done(f"k{count}", {"x": count})
        # No close()/flush() call needed: a fresh reader sees every
        # record that has returned — that is the crash-safety property.
        assert len(Manifest.open(path, "c", GRID).jobs) == count


def test_a_record_appends_without_rewriting_what_is_there(tmp_path):
    path = journal(tmp_path, ("k1", {"x": 1}))
    before = path.read_bytes()
    resumed = Manifest.open(path, "c", GRID)
    assert path.read_bytes() == before  # opening writes nothing
    resumed.record_done("k2", {"x": 2})
    assert path.read_bytes().startswith(before)
    assert set(Manifest.open(path, "c", GRID).jobs) == {"k1", "k2"}


def test_no_tmp_file_left_behind(tmp_path):
    journal(tmp_path, ("k1", {"x": 1}))
    assert [entry.name for entry in tmp_path.iterdir()] \
        == ["c.manifest.json"]


def test_the_file_is_created_by_the_first_record(tmp_path):
    path = tmp_path / "c.manifest.json"
    manifest = Manifest(path, "c", GRID)  # the constructor, not open()
    assert not path.exists()
    manifest.record_done("k1", {"x": 1})
    assert Manifest.open(path, "c", GRID).row("k1") == {"x": 1}


@pytest.mark.parametrize("first, second, expected", [
    (("failed", "flaky"), ("done", {"x": 2}), {"x": 2}),
    (("done", {"x": 1}), ("done", {"x": 2}), {"x": 2}),
    (("done", {"x": 1}), ("failed", "later"), None),
])
def test_replay_keeps_the_last_record_per_key(tmp_path, first, second,
                                              expected):
    path = tmp_path / "c.manifest.json"
    manifest = Manifest.open(path, "c", GRID)
    for status, payload in (first, second):
        getattr(manifest, f"record_{status}")("k1", payload)
    reopened = Manifest.open(path, "c", GRID)
    assert reopened.row("k1") == expected
    assert reopened.status("k1") == second[0]
    assert len(reopened.jobs) == 1


def test_grid_change_is_detected(tmp_path):
    path = tmp_path / "c.manifest.json"
    Manifest.open(path, "c", "a" * 40).record_done("k1", {})
    with pytest.raises(SpecError, match="different grid"):
        Manifest.open(path, "c", "b" * 40)


def test_fresh_starts_a_new_journal_over_the_old_one(tmp_path):
    path = tmp_path / "c.manifest.json"
    Manifest.open(path, "c", "a" * 40).record_done("k1", {})
    fresh = Manifest.open(path, "c", "b" * 40, fresh=True)
    assert fresh.jobs == {}
    fresh.record_done("k2", {})
    assert set(Manifest.open(path, "c", "b" * 40).jobs) == {"k2"}
    assert path.read_text().count("\n") == 2


# --- the torn tail ----------------------------------------------------------

def test_a_tail_cut_at_any_byte_is_dropped_and_truncated(tmp_path):
    path = journal(tmp_path, ("k1", {"x": 1}), ("k2", {"x": 2}),
                   ("k3", {"text": "a\nb", "x": 3.5}))
    whole = path.read_bytes()
    boundary = whole.rindex(b"\n", 0, -1) + 1  # where k3's line starts
    for cut in range(boundary, len(whole)):
        path.write_bytes(whole[:cut])
        reopened = Manifest.open(path, "c", GRID)
        # Exactly the earlier records: the cut one was never
        # acknowledged (its fsync cannot have returned).
        assert set(reopened.jobs) == {"k1", "k2"}, cut
        assert path.read_bytes() == whole[:boundary], cut
        # ... and the journal is whole again for further appends.
        reopened.record_done("k3", {"text": "a\nb", "x": 3.5})
        assert path.read_bytes() == whole, cut
        assert Manifest.open(path, "c", GRID).jobs.keys() \
            == {"k1", "k2", "k3"}


def test_a_complete_line_is_kept_whatever_follows(tmp_path):
    path = journal(tmp_path, ("k1", {"x": 1}))
    path.write_bytes(path.read_bytes() + b'{"key": "k2", "ro')
    assert set(Manifest.open(path, "c", GRID).jobs) == {"k1"}


# --- reported, never skipped ------------------------------------------------

@pytest.mark.parametrize("garbage", [
    b"not json\n", b'{"key": "k9"}\n', b"[1, 2]\n", b"\n"])
def test_a_terminated_garbage_line_names_path_and_line(tmp_path, garbage):
    path = journal(tmp_path, ("k1", {"x": 1}))
    whole = path.read_bytes()
    path.write_bytes(whole + garbage + b'{"key": "k2", "row": {}, '
                     b'"status": "done"}\n')
    with pytest.raises(SpecError) as excinfo:
        Manifest.open(path, "c", GRID)
    assert str(path) in str(excinfo.value)
    assert "line 3" in str(excinfo.value)
    # Reported, not repaired: the file is left for the user to look at.
    assert path.read_bytes().startswith(whole + garbage)


def test_a_missing_header_is_reported(tmp_path):
    path = journal(tmp_path, ("k1", {"x": 1}))
    path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(SpecError, match="format") as excinfo:
        Manifest.open(path, "c", GRID)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("content", [b"", b"{ torn"])
def test_a_file_without_a_whole_line_is_reported(tmp_path, content):
    path = tmp_path / "c.manifest.json"
    path.write_bytes(content)
    with pytest.raises(SpecError, match="line 1") as excinfo:
        Manifest.open(path, "c", GRID)
    assert str(path) in str(excinfo.value)
    assert path.read_bytes() == content


def test_a_format_1_manifest_is_reported_not_read(tmp_path):
    path = tmp_path / "c.manifest.json"
    path.write_text(json.dumps(
        {"format": 1, "campaign": "c", "grid_sha1": GRID,
         "jobs": {"k1": {"status": "done", "row": {"x": 1}}}},
        indent=2, sort_keys=True) + "\n")
    with pytest.raises(SpecError, match="has format 1, this build reads 2"):
        Manifest.open(path, "c", GRID)


def test_format_mismatch_is_reported(tmp_path):
    path = tmp_path / "c.manifest.json"
    path.write_text(json.dumps({"format": 99, "grid_sha1": "a" * 40,
                                "jobs": {}}) + "\n")
    with pytest.raises(SpecError, match="format"):
        Manifest.open(path, "c", "a" * 40)
