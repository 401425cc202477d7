"""Every job of every committed spec runs clean with telemetry armed,
exports both telemetry streams, and keeps a stats dict."""

import pathlib

import pytest

from repro.campaign import expand_grid, load_spec, run_job
from repro.campaign.spec import set_path
from repro.telemetry.export import parse_jsonl

SPECS_DIR = pathlib.Path(__file__).resolve().parents[2] / "specs"
SPECS = sorted(SPECS_DIR.glob("*.toml"))


def _jobs(path, telemetry):
    """The spec's jobs over a tenth of the committed horizon."""
    spec = load_spec(path)
    set_path(spec, "scenario.horizon", spec["scenario"]["horizon"] / 10)
    set_path(spec, "mode.telemetry", telemetry)
    return [job.spec for job in expand_grid(spec)]


class TestSpecSweep:
    @pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
    def test_every_job_runs_clean_with_telemetry(self, path):
        for job in _jobs(path, telemetry=True):
            streams = {}
            assert isinstance(run_job(job, streams), dict)
            for key in ("telemetry_jsonl", "telemetry_wall_jsonl"):
                assert key in streams, f"{path.stem} missing {key}"
            records = parse_jsonl(streams["telemetry_jsonl"])
            assert records, f"{path.stem} exported an empty stream"
            assert records[0]["type"] in ("header", "merged", "part"), \
                path.stem

    @pytest.mark.parametrize("name", ["dcf_saturation", "fault_storm",
                                      "city_scale_1p"])
    def test_jobs_without_telemetry_stay_bare(self, name):
        for job in _jobs(SPECS_DIR / f"{name}.toml", telemetry=False):
            streams = {}
            run_job(job, streams)
            assert not [key for key in streams
                        if key.startswith("telemetry")], name
