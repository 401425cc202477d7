"""Every committed perf macro runs clean with telemetry armed, exports
all three telemetry keys, and keeps its seeded protocol stats."""

import pathlib
import sys

from repro.telemetry.export import parse_jsonl

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf.macro import MACROS  # noqa: E402

SCALE = 0.02


class TestMacroSweep:
    def test_all_macros_run_clean_with_telemetry(self):
        for name in sorted(MACROS):
            result = MACROS[name](SCALE, telemetry=True)
            for key in ("telemetry_jsonl", "telemetry_wall_jsonl",
                        "telemetry_summary"):
                assert key in result, f"{name} missing {key}"
            records = parse_jsonl(result["telemetry_jsonl"])
            assert records, f"{name} exported an empty stream"
            header = records[0]
            assert header["type"] in ("header", "merged", "part"), name
            # The pinned stats survive untouched.
            assert isinstance(result["stats"], dict), name

    def test_macros_without_telemetry_stay_bare(self):
        for name in ("dcf_saturation", "wep_audit", "city_scale_1p"):
            result = MACROS[name](SCALE)
            assert "telemetry_jsonl" not in result, name
            assert "telemetry_summary" not in result, name
