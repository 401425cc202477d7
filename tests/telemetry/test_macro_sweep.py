"""Every job of every committed spec runs clean with telemetry armed,
exports both telemetry streams, keeps a stats dict, and samples the
same sim-time stream on both kernels."""

import pathlib

import pytest

from repro.campaign import expand_grid, load_spec, run_job
from repro.campaign.spec import set_path
from repro.core.engine import ckernel_available
from repro.telemetry.export import parse_jsonl

SPECS_DIR = pathlib.Path(__file__).resolve().parents[2] / "specs"
SPECS = sorted(SPECS_DIR.glob("*.toml"))
#: The compiled kernel joins where it is built.
KERNELS = ["python", "c"] if ckernel_available() else ["python"]


def _jobs(path, telemetry, kernel="auto"):
    """The spec's jobs over a tenth of the committed horizon."""
    spec = load_spec(path)
    set_path(spec, "scenario.horizon", spec["scenario"]["horizon"] / 10)
    set_path(spec, "mode.telemetry", telemetry)
    set_path(spec, "mode.kernel", kernel)
    return [job.spec for job in expand_grid(spec)]


class TestSpecSweep:
    @pytest.mark.parametrize("path", SPECS, ids=lambda path: path.stem)
    def test_every_job_runs_clean_with_telemetry(self, path):
        streams_by_kernel = {}
        for kernel in KERNELS:
            for index, job in enumerate(_jobs(path, telemetry=True,
                                               kernel=kernel)):
                streams = {}
                assert isinstance(run_job(job, streams), dict)
                for key in ("telemetry_jsonl", "telemetry_wall_jsonl"):
                    assert key in streams, f"{path.stem} missing {key}"
                records = parse_jsonl(streams["telemetry_jsonl"])
                assert records, f"{path.stem} exported an empty stream"
                assert records[0]["type"] in ("header", "merged", "part"), \
                    path.stem
                streams_by_kernel.setdefault(index, {})[kernel] = \
                    streams["telemetry_jsonl"]
        for index, streams in streams_by_kernel.items():
            assert len(set(streams.values())) == 1, \
                f"{path.stem} job {index}: the kernels sampled different streams"

    @pytest.mark.parametrize("name", ["dcf_saturation", "fault_storm",
                                      "city_scale_1p"])
    def test_jobs_without_telemetry_stay_bare(self, name):
        for job in _jobs(SPECS_DIR / f"{name}.toml", telemetry=False):
            streams = {}
            run_job(job, streams)
            assert not [key for key in streams
                        if key.startswith("telemetry")], name
