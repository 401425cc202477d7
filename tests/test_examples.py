"""Every script under ``examples/`` runs to completion.

The examples are the one consumer of the public API that no other test
runs, so a removed keyword or a renamed module would otherwise break
them silently.  Each ``main()`` runs in a fresh interpreter (the
examples build their own simulators and MAC address plans, and some
assert on their own results) and must exit 0.  ``jamming_study`` runs
with its module-level ``HORIZON`` lowered from inside the child: at the
committed 4 s it alone would take most of this file's time budget.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Module globals overridden in the child before ``main()`` runs.
OVERRIDES = {"jamming_study": {"HORIZON": 0.5}}

CHILD = """\
import ast, importlib.util, sys
path, overrides = sys.argv[1], ast.literal_eval(sys.argv[2])
spec = importlib.util.spec_from_file_location("example", path)
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
for name, value in overrides.items():
    assert hasattr(module, name), name
    setattr(module, name, value)
module.main()
"""


def test_examples_and_overrides_are_found():
    assert EXAMPLES, "no examples/*.py found"
    assert set(OVERRIDES) <= {path.stem for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_exits_cleanly(path):
    overrides = OVERRIDES.get(path.stem, {})
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), repr(overrides)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip(), f"{path.name} printed nothing"
