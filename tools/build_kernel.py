#!/usr/bin/env python
"""Build the optional compiled event-kernel in place.

Compiles ``src/repro/core/_ckernel.c`` into
``src/repro/core/_ckernel.*.so`` next to its source, so ``PYTHONPATH=src``
runs pick it up with no install step.  The extension is a pure
accelerator: when this script fails (no compiler, no headers) the
simulator keeps running on the pure-Python reference kernel with
byte-identical results.

Usage:
    python tools/build_kernel.py            # build (no-op if fresh)
    python tools/build_kernel.py --force    # rebuild even if fresh
    python tools/build_kernel.py --check    # report kernel availability
    python tools/build_kernel.py --clean    # remove built artifacts
    python tools/build_kernel.py --sanitize # ASan + UBSan build, apart

``--sanitize`` copies ``src/repro`` to ``build/sanitize/repro`` and
compiles that copy's extension with ``-fsanitize=address,undefined``; the
in-place ``.so`` is never touched.  The interpreter is not instrumented,
so a run loads the ASan runtime first and allocates objects with
``malloc``, where ASan sees their bounds (a slot read by offset on an
object of the wrong class lands past its end)::

    LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0 \
        PYTHONMALLOC=malloc PYTHONPATH=build/sanitize python -m pytest ...

``tests/test_sanitized_kernel.py`` runs the parity suites that way.

Exit status: 0 on success (or --clean), 1 when the build fails or
--check finds no usable extension.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import sysconfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
C_SOURCE = os.path.join(SRC, "repro", "core", "_ckernel.c")
EXT_GLOB = os.path.join(SRC, "repro", "core", "_ckernel.*.so")
SANITIZED = os.path.join(REPO, "build", "sanitize")


def _built_paths():
    return sorted(glob.glob(EXT_GLOB))


def _ext_path(src=SRC):
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(src, "repro", "core", "_ckernel" + suffix)


def _compiler():
    # $CC first, as setup.py's build_ext honours it: CC=/bin/false is
    # how CI proves the no-compiler fallback.
    return (os.environ.get("CC") or sysconfig.get_config_var("CC")
            or "cc").split()


def sanitizer_runtime():
    """The compiler's ASan runtime (a path), or None when it has none."""
    try:
        path = subprocess.run(
            _compiler() + ["-print-file-name=libasan.so"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        return None
    return path if os.path.isabs(path) and os.path.exists(path) else None


def sanitized_env(env):
    """``env`` set up to import the sanitized build: its copy of the
    package, the ASan runtime preloaded, objects from ``malloc``."""
    return dict(env, PYTHONPATH=SANITIZED, LD_PRELOAD=sanitizer_runtime(),
                ASAN_OPTIONS="detect_leaks=0", PYTHONMALLOC="malloc")


def clean():
    removed = []
    for path in _built_paths():
        os.remove(path)
        removed.append(path)
    build_dir = os.path.join(REPO, "build")
    if os.path.isdir(build_dir):
        shutil.rmtree(build_dir)
        removed.append(build_dir)
    for path in removed:
        print("removed", os.path.relpath(path, REPO))
    if not removed:
        print("nothing to clean")


def check(env=None):
    if env is None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "from repro.core.engine import ckernel_available, resolve_kernel\n"
        "ok = ckernel_available()\n"
        "print('kernel:', resolve_kernel('auto'),"
        " '(extension %s)' % ('available' if ok else 'not built'))\n"
        "raise SystemExit(0 if ok else 1)\n"
    )
    return subprocess.call([sys.executable, "-c", probe], env=env)


def build(force=False, sanitize=False):
    src = SRC
    if sanitize:
        # A fresh copy of the Python side each time, so the sanitized
        # extension always runs beside the package it was built with.
        src = SANITIZED
        shutil.rmtree(os.path.join(src, "repro"), ignore_errors=True)
        shutil.copytree(os.path.join(SRC, "repro"), os.path.join(src, "repro"),
                        ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    target = _ext_path(src)
    if (not force and not sanitize and os.path.exists(target)
            and os.path.getmtime(target) >= os.path.getmtime(C_SOURCE)):
        print("fresh:", os.path.relpath(target, REPO))
        return 0

    include = sysconfig.get_path("include")
    # -ffp-contract=off: the receive edges repeat the reference's float
    # expressions operation by operation; a fused multiply-add (the
    # compiler's default where the target has one) rounds once, not twice.
    cflags = ["-O2", "-fPIC", "-shared", "-fno-strict-aliasing",
              "-ffp-contract=off"]
    if sanitize:
        # Any report aborts the process: a test cannot pass over one.
        cflags += ["-g", "-fno-omit-frame-pointer",
                   "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=all"]
    cmd = _compiler() + cflags + ["-I", include, C_SOURCE, "-o", target,
                                  "-lm"]
    print(" ".join(cmd))
    try:
        subprocess.check_call(cmd)
    except (OSError, subprocess.CalledProcessError) as exc:
        print("build failed (%s); the pure-Python kernel remains in use."
              % exc, file=sys.stderr)
        if os.path.exists(target):
            os.remove(target)
        return 1
    print("built:", os.path.relpath(target, REPO))
    # Import-smoke the fresh extension in a clean interpreter.
    rc = check(sanitized_env(os.environ) if sanitize else None)
    if rc != 0:
        print("built extension failed its import probe; removing it.",
              file=sys.stderr)
        os.remove(target)
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="rebuild even when the .so is newer than the .c")
    parser.add_argument("--check", action="store_true",
                        help="report whether the compiled kernel is usable")
    parser.add_argument("--clean", action="store_true",
                        help="remove built artifacts")
    parser.add_argument("--sanitize", action="store_true",
                        help="build an ASan + UBSan copy in build/sanitize")
    args = parser.parse_args(argv)

    if args.clean:
        clean()
        return 0
    if args.check:
        return check()
    if args.sanitize and sanitizer_runtime() is None:
        print("the compiler has no libasan: no sanitized build",
              file=sys.stderr)
        return 1
    return build(force=args.force, sanitize=args.sanitize)


if __name__ == "__main__":
    sys.exit(main())
