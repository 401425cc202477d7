#!/usr/bin/env python
"""Sample where a benchmark workload spends its time inside the C kernel.

``cProfile`` sees no compiled callable dispatched from ``_ckernel.run``; the
ledger books them all to ``core.self_s``.  This copies ``src/`` to a temporary
directory, patches a ``SIGPROF`` + ``backtrace()`` sampler into *that* copy of
``_ckernel.c`` (the committed file never holds it), builds it as
``tools/build_kernel.py`` does plus ``-g -fno-inline``, runs the workload's
set-up and run in a child interpreter on that tree, under
``REPRO_KERNEL=c`` whatever the caller's environment says (a warm-up, then
``--repeats`` sampled runs), resolves the PCs with ``nm`` and prints three
tables of sampled CPU time.  The box decides the tick rate (asked for 2 kHz,
it gave 250 Hz here) and ``-fno-inline`` is slower than the measured build:
compare shares, with the stack count in mind.
    python tools/sample_kernel.py emitter_field [--seed 1] [--repeats 5]
"""

import argparse
import bisect
import collections
import functools
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HZ, ROWS = 2000, 16      # the tick rate asked for; rows per table
METHODS = "static PyMethodDef ck_methods[] = {\n"
ENTRIES = ('    {"_sample", sk_sample, METH_O, "sampler"},\n'
           '    {"_sample_dump", sk_dump, METH_O, "sampler"},\n')
SAMPLER = r"""
/* --- patched in by tools/sample_kernel.py: a SIGPROF stack sampler ---- */
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
static void *sk_pcs[50000][48];  /* zero-filled: a stack ends at NULL */
static volatile int sk_count;
static void
sk_tick(int signum)
{
    if (sk_count < 50000 && backtrace(sk_pcs[sk_count], 48) > 0)
        sk_count++;  /* after the call: no tail call, this frame stays */
}
/* _sample(period_us): tick every period_us (< 1e6) of CPU time; 0 stops. */
static PyObject *
sk_sample(PyObject *module, PyObject *arg)
{
    long us = PyLong_AsLong(arg);
    struct itimerval timer = {{0, us}, {0, us}};
    void *warm[2];
    backtrace(warm, 2);  /* loads the unwinder now, not inside the handler */
    if (us < 0 || signal(SIGPROF, sk_tick) == SIG_ERR
            || setitimer(ITIMER_PROF, &timer, NULL) < 0)
        return PyErr_Occurred() ? NULL : PyErr_SetFromErrno(PyExc_OSError);
    Py_RETURN_NONE;
}
/* _sample_dump(path) -> stacks: a line each, leaf first, of
 * "object-file|pc|load-base" frames. */
static PyObject *
sk_dump(PyObject *module, PyObject *arg)
{
    const char *path = PyUnicode_AsUTF8(arg);
    FILE *out = path == NULL ? NULL : fopen(path, "w");
    Dl_info at;
    int i, j;
    if (out == NULL)
        return path == NULL ? NULL : PyErr_SetFromErrno(PyExc_OSError);
    for (i = 0; i < sk_count; i++, fputc('\n', out))
        for (j = 0; j < 48 && sk_pcs[i][j] != NULL; j++) {
            int known = dladdr(sk_pcs[i][j], &at) && at.dli_fname != NULL;
            fprintf(out, "%s|%lx|%lx ", known ? at.dli_fname : "?",
                    (unsigned long)sk_pcs[i][j],
                    known ? (unsigned long)at.dli_fbase : 0UL);
        }
    fclose(out);
    return PyLong_FromLong(sk_count);
}
"""
CHILD = """\
import os, sys, time
sys.path[:0] = [{repo!r}, {src!r}]
from bench.workloads import WORKLOADS
from repro.core.engine import Simulator
ext = Simulator(kernel="c")._ext
if Simulator()._ext is not ext:     # the default kernel the workload gets
    sys.exit("sampling needs the compiled kernel; REPRO_KERNEL="
             + os.environ.get("REPRO_KERNEL", "") + " is set")
workload = WORKLOADS[{name!r}]
workload.run(workload.setup({seed}, {scale}))    # warm memos, as the bench's
cpu = 0.0
for _ in range({repeats}):
    state = workload.setup({seed}, {scale})
    started = time.process_time()
    ext._sample({period_us})
    workload.run(state)
    ext._sample(0)
    cpu += time.process_time() - started
print(ext._sample_dump({out!r}), cpu)
"""


def build_sampled_tree(tmp):
    """``tmp/src``, the sampler patched in, built with ``-g -fno-inline``."""
    shutil.copytree(os.path.join(REPO, "src"), os.path.join(tmp, "src"))
    os.mkdir(os.path.join(tmp, "tools"))
    builder = shutil.copy(os.path.join(REPO, "tools", "build_kernel.py"),
                          os.path.join(tmp, "tools"))
    source = pathlib.Path(tmp, "src", "repro", "core", "_ckernel.c")
    text = source.read_text()
    if text.count(METHODS) != 1:
        raise SystemExit("sample_kernel: no method table to patch")
    source.write_text(text.replace(METHODS, SAMPLER + METHODS + ENTRIES))
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    built = subprocess.run(
        [sys.executable, builder, "--force"], text=True,
        env={**os.environ, "CC": cc + " -g -fno-inline"},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if built.returncode != 0:
        raise SystemExit("sample_kernel: the build failed:\n" + built.stdout)


@functools.lru_cache(maxsize=None)
def functions(path):
    """What ``nm`` lists as code in an object file, ascending, and
    whether the file loads at a base (ET_DYN)."""
    if not os.path.isfile(path):          # the main program, by argv[0]
        return False, [], []
    with open(path, "rb") as handle:
        relocated = handle.read(18)[16:18] == b"\x03\x00"
    listing = subprocess.run(
        ["nm", "--defined-only", "-n", path], text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout
    rows = [(int(row[0], 16), row[2])
            for row in map(str.split, listing.splitlines())
            if len(row) == 3 and row[1] in "tTwW"]
    return relocated, [row[0] for row in rows], [row[1] for row in rows]


def symbol(frame, caller):
    # (function, file) of a frame; a caller's PC is one past its call.
    path, pc, base = frame.split("|")
    relocated, addresses, names = functions(path)
    address = int(pc, 16) - caller - (int(base, 16) if relocated else 0)
    index = bisect.bisect_right(addresses, address) - 1
    return names[index] if index >= 0 else f"[{path}]", path


def report(stacks):
    self_time, nearest, inclusive = (collections.Counter() for _ in range(3))
    for stack in stacks:
        # Frames 0 and 1 are the handler and the signal trampoline.
        frames = [symbol(frame, depth > 0)
                  for depth, frame in enumerate(stack.split()[2:])]
        names = [name for name, _path in frames]
        self_time[names[0] if names else "[no stack]"] += 1
        # The extension's own functions, leaf first (not the Py_INCREF and
        # friends -fno-inline leaves there); past an interpreter frame,
        # Python is what runs.
        kernel = [(depth, name) for depth, (name, path) in enumerate(frames)
                  if "_ckernel" in path and name.strip("_")[:2] != "Py"]
        python = names.index("_PyEval_EvalFrameDefault") \
            if "_PyEval_EvalFrameDefault" in names else len(names)
        nearest[kernel[0][1] if kernel and kernel[0][0] < python
                else "(the interpreter)"] += 1
        inclusive.update({name for _depth, name in kernel})
    for title, counts in (
            ("self time by symbol", self_time),
            ("nearest _ckernel function, or the interpreter", nearest),
            ("inclusive by _ckernel function", inclusive)):
        print(f"\n{title}")
        for name, count in counts.most_common(ROWS):
            print(f"  {100 * count / len(stacks):5.1f} %  {count:6d}  {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a name in bench.workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)  # smoke tests
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sample_kernel.") as tmp:
        build_sampled_tree(tmp)
        out = os.path.join(tmp, "stacks")
        child = subprocess.run(
            [sys.executable, "-c", CHILD.format(
                repo=REPO, src=os.path.join(tmp, "src"), name=args.workload,
                seed=args.seed, scale=args.scale, repeats=args.repeats,
                period_us=1000000 // HZ, out=out)],
            cwd=REPO, env={**os.environ, "REPRO_KERNEL": "c"},
            stdout=subprocess.PIPE, text=True)
        if child.returncode:            # its stderr says why
            raise SystemExit(child.returncode)
        count, cpu = map(float, child.stdout.split()[-2:])
        print(f"{args.workload} seed {args.seed}: {count:.0f} stacks in "
              f"{cpu:.3f} cpu-s, {count / max(cpu, 1e-9):.0f} of {HZ} Hz")
        with open(out) as handle:       # nm reads tmp's extension: in here
            report(handle.read().splitlines())


if __name__ == "__main__":
    main()
