"""tools/reach.py's recorder: a call made only in a forked child that
leaves by ``os._exit`` (as the campaign pool's and the sharded
executor's workers do) is recorded, and a function never called is
not."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
REACH = REPO_ROOT / "tools" / "reach.py"

CHILD = """
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("reach", {reach!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.record({out!r}, os.path.dirname(os.path.abspath(__file__)))


def only_in_the_child():
    return 1


def never_called():
    return 2


pid = os.fork()
if pid == 0:
    only_in_the_child()
    os._exit(0)
os.waitpid(pid, 0)
"""


def _load():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_forked_child_s_calls_are_recorded(tmp_path):
    out = tmp_path / "records"
    out.mkdir()
    script = tmp_path / "forks.py"
    script.write_text(CHILD.format(reach=str(REACH), out=str(out)))
    subprocess.run([sys.executable, str(script)], check=True, timeout=60)
    reach = _load()
    reached = reach.read_records(str(out))
    lines = script.read_text().splitlines()
    child = lines.index("def only_in_the_child():") + 1
    never = lines.index("def never_called():") + 1
    assert (str(script), child) in reached
    assert (str(script), never) not in reached
    total, dead, surfaces = reach.unreached(str(script), reached)
    assert (total, dead) == (4, 2)
    assert surfaces == {"only_in_the_child": 0, "never_called": 2}


REACH_MODULE = _load()
KEEP_LIST = REACH_MODULE.read_keep()


@pytest.fixture(scope="module")
def nothing_reached():
    """Every surface under ``src/repro`` as though no consumer ran."""
    return REACH_MODULE.survey(set())[1]


@pytest.mark.parametrize("entry", sorted(KEEP_LIST))
def test_each_keep_entry_names_a_surface_that_can_need_it(
        entry, nothing_reached):
    # The half of ``--check`` that needs no consumer run: an entry whose
    # surface is gone, or has fewer than MIN_LINES function lines in
    # all, or gives no reason, fails here before CI's reach job runs.
    errors = REACH_MODULE.check(nothing_reached, {entry: KEEP_LIST[entry]})
    assert [e for e in errors if not e.startswith("UNLISTED")] == []


def test_the_keep_list_reads_entry_and_reason(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("# a comment  with two spaces\n\n"
                    "a.py::Big  kept for  a reason\n"
                    "b.py\n")
    assert REACH_MODULE.read_keep(str(keep)) == {
        "a.py::Big": "kept for  a reason", "b.py": ""}


SURFACES = {"a.py::Big": 20, "a.py::Small": 19, "a.py::BigToo": 3,
            "c.py::One": 25, "c.py::Two": 2}


@pytest.mark.parametrize("keep, errors", [
    ({"a.py::Big": "why", "c.py": "why"}, []),
    ({"c.py": "why"}, ["UNLISTED a.py::Big: 20 unreached lines"]),
    ({"a.py::Big": "why", "c.py::One": "why", "c.py::Two": "why"},
     ["REACHED c.py::Two: 2 unreached lines"]),
    ({"a.py::Big": "why", "c.py": "why", "d.py::Gone": "why"},
     ["GONE d.py::Gone"]),
    ({"a.py::Big": " ", "c.py": "why"}, ["NO REASON a.py::Big"]),
    ({"a.py::BigToo": "why", "c.py": "why"},
     ["UNLISTED a.py::Big: 20 unreached lines",
      "REACHED a.py::BigToo: 3 unreached lines"]),
], ids=["a surface or a whole file listed", "a big surface unlisted",
        "an entry under the threshold", "an entry gone",
        "an entry without a reason", "an entry is not a prefix of another"])
def test_check(keep, errors):
    assert REACH_MODULE.check(SURFACES, keep) == errors


NESTED = '''\
def outer():
    inner = lambda: (
        1)

    @staticmethod
    def deep():
        return 2
    return inner


class Holder:
    def method(self):
        return 3
'''


def test_a_line_belongs_to_its_innermost_function(tmp_path):
    path = tmp_path / "nested.py"
    path.write_text(NESTED)
    # Only ``outer`` ran: the lambda's two lines, ``deep``'s and
    # ``Holder.method``'s are unreached.  ``deep`` is keyed by its
    # decorator's line, as its code object is, but the decorator runs
    # in ``outer``.
    total, dead, surfaces = REACH_MODULE.unreached(
        str(path), {(str(path), 1)})
    assert (total, dead) == (10, 6)
    assert surfaces == {"outer": 4, "Holder": 2}
    _, dead, _ = REACH_MODULE.unreached(str(path), {(str(path), 1),
                                                    (str(path), 5)})
    assert dead == 4


def test_every_spec_and_example_is_a_consumer(tmp_path):
    argvs = [argv[1:3] for argv in REACH_MODULE.consumers(str(tmp_path))]
    specs = sorted((REPO_ROOT / "specs").glob("*.toml"))
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert specs and examples
    for spec in specs:
        assert ["tools/run_campaign.py", f"specs/{spec.name}"] in argvs
    for example in examples:
        assert [f"examples/{example.name}"] in argvs
