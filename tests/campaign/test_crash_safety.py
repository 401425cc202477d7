"""Crash-safety gate: kill a campaign mid-grid, resume, compare bytes.

The hard contract from the manifest layer: a campaign killed at any
instant resumes exactly where it stopped, and the resumed store is
byte-identical to an uninterrupted run's.  The kill is simulated with
``REPRO_CAMPAIGN_CRASH_AFTER=N`` — the executor ``os._exit(23)``s right
after the Nth manifest record, an honest SIGKILL stand-in with no
flaky signal timing.
"""

import subprocess
import sys

SPEC_TOML = """\
[campaign]
name = "crashtest"

[scenario]
builder = "infrastructure_bss"
horizon = 0.05
seed = 3

[scenario.params]
stations = 2

[traffic]
kind = "saturate"
payload_bytes = 400
depth = 2

[sweep]
"scenario.params.rts_threshold_bytes" = [2347, 256]

[seeds]
count = 2
"""


def run_cli(repo_root, spec, out_dir, *extra, crash_after=None):
    env = {"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"}
    if crash_after is not None:
        env["REPRO_CAMPAIGN_CRASH_AFTER"] = str(crash_after)
    return subprocess.run(
        [sys.executable, str(repo_root / "tools" / "run_campaign.py"),
         str(spec), "--out-dir", str(out_dir), *extra],
        capture_output=True, text=True, env=env, cwd=repo_root)


def test_kill_mid_grid_then_resume_is_byte_identical(tmp_path, repo_root):
    spec = tmp_path / "crashtest.toml"
    spec.write_text(SPEC_TOML)
    interrupted = tmp_path / "interrupted"
    oneshot = tmp_path / "oneshot"

    # 1. Die the hard way after 2 of 4 jobs hit the manifest.
    killed = run_cli(repo_root, spec, interrupted, crash_after=2)
    assert killed.returncode == 23, killed.stderr
    manifest = interrupted / "crashtest.manifest.json"
    assert manifest.exists()
    assert manifest.read_text().count('"status": "done"') == 2
    # The crash predates the store projection: no result files yet.
    assert not (interrupted / "crashtest.results.jsonl").exists()

    # 2. Resume: only the missing half runs, the store comes out whole.
    resumed = run_cli(repo_root, spec, interrupted)
    assert resumed.returncode == 0, resumed.stderr
    assert "2 ran, 2 reused" in resumed.stdout

    # 3. Byte-identity against a run that was never interrupted.
    clean = run_cli(repo_root, spec, oneshot)
    assert clean.returncode == 0, clean.stderr
    for suffix in ("results.jsonl", "results.csv"):
        assert (interrupted / f"crashtest.{suffix}").read_bytes() \
            == (oneshot / f"crashtest.{suffix}").read_bytes()


def test_two_cli_runs_fanned_out_are_byte_identical(tmp_path, repo_root):
    spec = tmp_path / "crashtest.toml"
    spec.write_text(SPEC_TOML)
    stores = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = run_cli(repo_root, spec, out, "--jobs", "2",
                       "--timeout", "120")
        assert proc.returncode == 0, proc.stderr
        stores.append((out / "crashtest.results.jsonl").read_bytes()
                      + (out / "crashtest.results.csv").read_bytes())
    assert stores[0] == stores[1]
