"""The parity suites against an AddressSanitizer + UBSan build.

The compiled twins read ``__slots__`` by offset once an exactness check
passed; a check that is missing or wrong reads past an object of another
class.  The parity suites prove each twin equal to its reference, but a
wild read that happens to return a plausible value can pass them.  So
``tools/build_kernel.py --sanitize`` builds the extension with
``-fsanitize=address,undefined`` into ``build/sanitize`` (a copy of the
package beside it; the in-place ``.so`` is not touched), and this test
runs the suites that drive every twin against that build in a fresh
interpreter: the ASan runtime preloaded, every object from ``malloc``
(where ASan knows its bounds), and any report fatal.

Skips, naming what is missing, without the extension, a compiler or the
compiler's ``libasan``.
"""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.core.engine import ckernel_available

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SUITES = ("tests/test_slot_differential.py", "tests/phy/test_per_twin.py",
          "tests/core/test_event_queue.py", "tests/core/test_kernel_parity.py",
          "tests/test_offset_reads.py")


def _build_tool():
    spec = importlib.util.spec_from_file_location(
        "build_kernel", REPO_ROOT / "tools" / "build_kernel.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


tool = _build_tool()

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


def _sanitized_env():
    compiler = tool._compiler()
    if shutil.which(compiler[0]) is None:
        pytest.skip(f"no C compiler ({compiler[0]}) to build the sanitized "
                    f"kernel with")
    if tool.sanitizer_runtime() is None:
        pytest.skip(f"{' '.join(compiler)} has no libasan "
                    f"(-print-file-name=libasan.so): no sanitized kernel")
    built = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "build_kernel.py"),
         "--sanitize"], cwd=REPO_ROOT, text=True, timeout=300,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert built.returncode == 0, built.stdout
    # Strict: every simulator the suites leave to the default runs the
    # sanitized extension, whichever kernel the caller defaults to.
    return dict(tool.sanitized_env(os.environ), REPRO_KERNEL="c")


def test_the_parity_suites_pass_under_the_sanitizers():
    env = _sanitized_env()
    probe = subprocess.run(
        [sys.executable, "-c", "from repro.core import _ckernel, engine; "
         "assert engine.ckernel_available(); print(_ckernel.__file__)"],
        cwd=REPO_ROOT, env=env, text=True, timeout=120,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert probe.returncode == 0, probe.stdout
    assert pathlib.Path(probe.stdout.strip()).is_relative_to(tool.SANITIZED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *SUITES], cwd=REPO_ROOT, env=env, text=True, timeout=1800,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    tail = done.stdout[-4000:]
    assert done.returncode == 0, tail
    for report in ("AddressSanitizer", "runtime error:"):
        assert report not in done.stdout, tail
    summary = done.stdout.strip().splitlines()[-1]
    assert " passed" in summary and "skipped" not in summary, summary
