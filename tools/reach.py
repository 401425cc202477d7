#!/usr/bin/env python3
"""Which function lines of ``src/repro`` no consumer of the library runs.

Runs each ``specs/*.toml`` through ``tools/run_campaign.py --jobs 2``,
the ``examples/``, the experiments ``benchmarks/bench_*.py``, ``python3
-m bench --seconds 0.3``, ``tools/capture_golden.py --telemetry`` and
``tools/teleview.py`` on its streams, on the Python kernel (it reaches
all the compiled twins do), every interpreter and fork recording its
``sys.settrace`` "call" events.  Prints the unreached function lines per
file; a line belongs to its innermost ``def`` or ``lambda``.  ``--check``
fails on a class or module-level function with ``MIN_LINES`` unreached
lines that ``tools/reach_keep.txt`` does not list, and on an entry there
that is reached or gone.  ≈12 min on 2 CPUs: ``python tools/reach.py
[--check]``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
KEEP = os.path.join(ROOT, "tools", "reach_keep.txt")
MIN_LINES = 20
HOOK = ("import importlib.util as u\ns = u.spec_from_file_location('r', {!r})"
        "\nm = u.module_from_spec(s)\ns.loader.exec_module(m)\n"
        "m.record({!r}, {!r})\n")


def record(out_dir, prefix):
    """Record the code objects this process and its forks call; each
    writes those under ``prefix`` to a new file in ``out_dir`` as it
    exits, by ``os._exit`` too."""
    import atexit
    import tempfile
    codes = set()

    def dump():
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(dir=out_dir)
        with os.fdopen(fd, "w") as out:
            out.writelines(f"{c.co_filename}\t{c.co_firstlineno}\n"
                           for c in codes if c.co_filename.startswith(prefix))

    def _exit(status, _real=os._exit):
        dump()
        _real(status)
    os._exit = _exit
    atexit.register(dump)
    sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))


def read_records(out_dir):
    """{(file, first line)} of every code object any process called."""
    reached = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as lines:
            reached.update((f, int(n)) for f, n in
                           (line.rstrip("\n").split("\t") for line in lines))
    return reached


def unreached(path, reached):
    """(function lines, unreached lines, {surface: its unreached lines})."""
    import ast
    tree = ast.parse(open(path).read())
    first = lambda node: min([node.lineno] + [
        d.lineno for d in getattr(node, "decorator_list", ())])
    owner = {}  # line -> its innermost function: ast.walk is breadth-first
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            owner.update(dict.fromkeys(
                range(node.lineno, node.end_lineno + 1), first(node)))
    dead = {line for line, start in owner.items()
            if (path, start) not in reached}
    return len(owner), len(dead), {
        node.name: len(dead.intersection(range(first(node),
                                               node.end_lineno + 1)))
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def consumers(tmp):
    """Their command lines, yielded as they run: teleview reads what
    capture_golden wrote."""
    py, listed = sys.executable, lambda d: sorted(os.listdir(f"{ROOT}/{d}"))
    for spec in listed("specs"):
        yield [py, "tools/run_campaign.py", f"specs/{spec}", "--jobs", "2",
               "--quiet", "--out-dir", f"{tmp}/campaigns"]
    yield from ([py, f"examples/{name}"] for name in listed("examples"))
    yield [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"] + [
        f"benchmarks/{n}" for n in listed("benchmarks") if "bench_" in n]
    yield [py, "-m", "bench", "--seconds", "0.3"]
    yield [py, "tools/capture_golden.py", f"{tmp}/golden", "--telemetry"]
    for base, _, names in sorted(os.walk(f"{tmp}/golden")):
        yield from ([py, "tools/teleview.py", f"{base}/{name}"] for name
                    in sorted(names) if name.endswith(".telemetry.jsonl"))


def run_consumers(tmp):
    """Run every consumer; return what they reached."""
    import subprocess
    os.mkdir(f"{tmp}/records")
    with open(f"{tmp}/sitecustomize.py", "w") as hook:
        hook.write(HOOK.format(os.path.realpath(__file__), f"{tmp}/records",
                               SRC + os.sep))
    env = dict(os.environ, REPRO_KERNEL="python",
               PYTHONPATH=os.pathsep.join([tmp, os.path.join(ROOT, "src")]))
    for argv in consumers(tmp):
        done = subprocess.run(argv, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        print(f"reach: exit {done.returncode}  {' '.join(argv[1:3])}",
              file=sys.stderr)
        if done.returncode:
            sys.exit(f"{done.stdout[-2000:]}\nreach: a consumer failed")
    return read_records(f"{tmp}/records")


def survey(reached):
    """[(file, function lines, unreached)] and ``{surface: unreached
    lines}`` over every file under ``src/repro``."""
    files, surfaces = [], {}
    for base, _, names in sorted(os.walk(SRC)):
        for path in sorted(f"{base}/{n}" for n in names if n.endswith(".py")):
            lines, missed, tops = unreached(path, reached)
            rel = path[len(SRC) + 1:]
            files.append((rel, lines, missed))
            surfaces.update({f"{rel}::{top}": n for top, n in tops.items()})
    return files, surfaces


def read_keep(path=KEEP):
    """The keep-list as ``{entry: reason}``: two spaces end the entry."""
    with open(path) as lines:
        return dict(line.rstrip("\n").partition("  ")[::2] for line in lines
                    if line.strip() and not line.startswith("#"))


def check(surfaces, keep):
    """The keep-list's complaints about ``{surface: unreached lines}``."""
    listed = lambda name, entry: (  # an entry may name a whole file
        name == entry or name.startswith(entry + "::"))
    errors = [f"UNLISTED {name}: {n} unreached lines"
              for name, n in surfaces.items() if n >= MIN_LINES
              and not any(listed(name, entry) for entry in keep)]
    for entry, reason in keep.items():
        covered = [n for name, n in surfaces.items() if listed(name, entry)]
        if not covered:
            errors.append(f"GONE {entry}")
        elif max(covered) < MIN_LINES:
            errors.append(f"REACHED {entry}: {max(covered)} unreached lines")
        if not reason.strip():
            errors.append(f"NO REASON {entry}")
    return errors


def main(argv=None):
    import argparse
    import tempfile
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="hold the unreached surfaces to the keep-list")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        reached = run_consumers(tmp)
    files, surfaces = survey(reached)
    for rel, lines, missed in files:
        if missed:
            print(f"{missed:6d} / {lines:5d}  {rel}")
    print(f"{sum(f[2] for f in files):6d} / {sum(f[1] for f in files):5d}"
          "  unreached function lines under src/repro")
    if not args.check:
        return 0
    errors = check(surfaces, read_keep())
    print("\n".join(errors) or "reach: the keep-list holds")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
