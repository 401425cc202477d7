"""tools/sample_kernel.py end to end, once, at a small scale."""

import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.core.engine import ckernel_available

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
C_SOURCE = REPO_ROOT / "src" / "repro" / "core" / "_ckernel.c"

pytestmark = [
    pytest.mark.skipif(
        not ckernel_available(),
        reason="compiled kernel not built (run: python tools/build_kernel.py)"
               ": the sampler patches and builds it"),
    pytest.mark.skipif(shutil.which("nm") is None,
                       reason="binutils' nm is not installed: the sampler "
                              "resolves its program counters with it")]


def test_it_samples_a_workload_and_names_the_kernels_functions():
    committed = C_SOURCE.read_bytes()
    built = sorted(C_SOURCE.parent.glob("_ckernel.*.so"))
    stamps = [path.stat().st_mtime_ns for path in built]
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "sample_kernel.py"),
         "emitter_field", "--repeats", "1", "--scale", "0.3", "--seed", "3"],
        cwd=REPO_ROOT, timeout=600, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert done.returncode == 0, done.stdout[-3000:]
    head, _, tables = done.stdout.partition("\n")
    assert head.startswith("emitter_field seed 3: ") and " of 2000 Hz" in head
    stacks = int(head.split(": ")[1].split()[0])
    assert stacks >= 5, head            # 0.1 cpu-s even at 50 Hz
    for title in ("self time by symbol",
                  "nearest _ckernel function, or the interpreter",
                  "inclusive by _ckernel function"):
        assert f"\n{title}\n" in tables, done.stdout
    # All but a stray stack of a run() pass through the compiled loop.
    inclusive = tables.split("inclusive by _ckernel function\n")[1]
    share, _percent, count, name = inclusive.splitlines()[0].split()
    assert name == "ck_run" and float(share) > 80.0, inclusive
    assert int(count) <= stacks
    # The sampler lives in the temporary copy only.
    assert C_SOURCE.read_bytes() == committed and b"SIGPROF" not in committed
    assert [path.stat().st_mtime_ns for path in built] == stamps
