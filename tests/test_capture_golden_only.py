"""capture_golden over the committed specs: ``--only`` and what a
capture writes."""

import json
import pathlib
import sys

import pytest

from repro import BEHAVIOUR_EPOCH
from repro.campaign import runner
from repro.campaign.pool import select_names
from repro.core.engine import Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import capture_golden  # noqa: E402


def _files(root):
    return sorted(str(path.relative_to(root))
                  for path in root.rglob("*") if path.is_file())


class TestOnly:
    def test_the_choices_are_the_committed_specs(self):
        assert capture_golden.spec_names() == sorted(
            path.stem for path in (REPO_ROOT / "specs").glob("*.toml"))

    def test_globs_expand_and_duplicates_collapse_in_command_line_order(
            self):
        names = select_names(["mesh_chain", "mesh_backhaul_*", "mesh_chain"],
                             capture_golden.spec_names(), what="spec")
        assert names == ["mesh_chain", "mesh_backhaul_dsdv",
                         "mesh_backhaul_grid", "mesh_backhaul_static"]

    def test_unmatched_pattern_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            capture_golden.main([str(tmp_path), "--only", "no_such*"])
        assert "no_such" in capsys.readouterr().err
        assert _files(tmp_path) == []


class TestCapture:
    def test_a_one_job_spec_is_traced_under_its_campaign_name(self,
                                                              tmp_path):
        capture_golden.main([str(tmp_path), "--only", "hidden_terminal_rts"])
        assert _files(tmp_path) == ["hidden_terminal_rts.stats.json",
                                    "hidden_terminal_rts.trace"]
        stats = json.loads(
            (tmp_path / "hidden_terminal_rts.stats.json").read_text())
        trace = (tmp_path / "hidden_terminal_rts.trace").read_text()
        assert stats["protocol_events"] == trace.count("\n") > 0
        assert stats["behaviour_epoch"] == BEHAVIOUR_EPOCH
        assert "events" not in stats
        assert runner.Simulator is Simulator  # the tracing swap is undone

    def test_a_sweep_is_captured_job_by_job(self, tmp_path):
        capture_golden.main([str(tmp_path), "--only", "mesh_chain"])
        assert _files(tmp_path) == [
            f"mesh_chain/seed={seed}.{kind}"
            for seed in (5, 6, 7) for kind in ("stats.json", "trace")]

    def test_a_job_that_traced_nothing_is_stats_only(self, tmp_path):
        # city_cells runs on the executor's own simulators: nothing the
        # runner built records an event.
        capture_golden.main([str(tmp_path), "--only", "city_scale_1p"])
        assert _files(tmp_path) == ["city_scale_1p.stats.json"]

