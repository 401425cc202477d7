"""The frozen benchmark of ``repro``: five workloads, measured from outside.

Run ``python3 -m bench`` from the repository root; see ``bench/README.md``
for the workloads, the metrics and the procedure for claiming a gain.
The package reaches the simulator only through its documented public
API, so the simulator can be simplified without editing the benchmark.
"""

import pathlib

#: The checkout the benchmark sits in and measures.
ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout, ignored by git: trace files,
#: campaign stores while a pass runs, the compiler's temporaries.
OUT_DIR = ROOT / "bench" / "out"
