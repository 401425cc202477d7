"""Nothing is retained per simulation: repeated runs in one process hold
the heap flat.

A campaign worker builds thousands of simulations in one process, so any
memo or binding that keeps something per constructed simulation grows
without bound there.  Ten ``setup -> run -> finish`` repeats of the
benchmark's ``mesh_roam`` workload (small scale) — the workload through
the MAC's per-peer ACKs and the shared beacon decode — run back to back
in a fresh interpreter; after each, ``gc.collect()`` and
``sys.getallocatedblocks()``.  The first repeats fill the process-wide
memos (interned frame controls, the last beacon); from the
third on the count must stay flat.  A fresh interpreter, because what a
process has already run decides what is left to fill.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.engine import ckernel_available

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPEATS = 10
#: Blocks the interpreter may come and go by between repeats (free-list
#: and interned-string noise; the pure-Python kernel reads -8..+1).
TOLERANCE = 16

_REPEAT = f"""
import gc, json, sys
from bench.workloads import WORKLOADS

workload = WORKLOADS["mesh_roam"]
blocks = []
for _ in range({REPEATS}):
    state = workload.setup(1, 0.1)
    workload.run(state)
    failures = workload.finish(state).failures
    assert not failures, failures
    del state
    gc.collect()
    blocks.append(sys.getallocatedblocks())
print(json.dumps(blocks))
"""


def _growth(kernel):
    env = dict(os.environ, REPRO_KERNEL=kernel,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", _REPEAT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    blocks = json.loads(done.stdout.splitlines()[-1])
    return blocks[-1] - blocks[1], blocks


def test_the_python_kernel_retains_nothing_per_simulation():
    growth, blocks = _growth("python")
    assert growth <= TOLERANCE, blocks


@pytest.mark.skipif(not ckernel_available(),
                    reason="compiled kernel not built "
                           "(run: python tools/build_kernel.py)")
def test_the_compiled_kernel_retains_nothing_per_simulation():
    growth, blocks = _growth("c")
    assert growth <= TOLERANCE, blocks
