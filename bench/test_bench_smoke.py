"""Schema smoke test of the benchmark: a tiny ``--scale 0.02`` set.

Asserts only shape — every workload and metric BENCHMARK.json names is
emitted under its declared unit, names are well-formed and the counts
are within the contract's limits — never a timing and never a verdict
(at this scale the output checks are not meaningful).
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_emits_what_it_declares(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    workloads = [entry["name"] for entry in declared["workloads"]]
    assert len(workloads) == 5
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    sections = {"timed": declared["end_to_end"],
                "traced": declared["per_layer"]}
    names = workloads + [metric["name"] for metrics in sections.values()
                         for metric in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(metric["unit"])
               for metrics in sections.values() for metric in metrics)
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               and metric["better"] == "lower"
               for metric in declared["end_to_end"])

    out = tmp_path / "set.json"
    subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "0.02", "--seconds", "0",
         "--no-build", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == workloads
    for name, passes in result["workloads"].items():
        for mode, metrics in sections.items():
            report = passes[mode]
            assert report["attempted"] >= 1, (name, mode)
            assert {key: entry["unit"]
                    for key, entry in report["metrics"].items()} \
                == {metric["name"]: metric["unit"] for metric in metrics}, \
                (name, mode)
            assert all(isinstance(entry["value"], (int, float))
                       for entry in report["metrics"].values()), (name, mode)
