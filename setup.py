"""Legacy setup shim (the environment's setuptools predates PEP 660).

Also declares the optional compiled event-kernel
(``repro.core._ckernel``).  The extension is a pure accelerator — the
pure-Python kernel is the reference implementation and every feature
works without it — so the build must never be able to fail the install:
``OptionalBuildExt`` turns any compiler error (missing toolchain,
missing headers, exotic platform) into a warning and a pure-Python
install.  ``python tools/build_kernel.py`` is the convenience wrapper
for building it in place.

The library itself needs only the standard library.  ``networkx`` is the
``mesh`` extra: only a mesh-topology ``repro.wpan.ZigbeePan`` imports it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """``build_ext`` that degrades to pure Python on any compile failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain absent entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # this one extension failed to compile
            self._skip(exc)

    def _skip(self, exc):
        import warnings

        warnings.warn(
            "repro.core._ckernel failed to build (%s: %s); the simulator "
            "will use the pure-Python kernel. Results are identical, only "
            "slower." % (type(exc).__name__, exc))


setup(
    ext_modules=[
        Extension(
            "repro.core._ckernel",
            sources=["src/repro/core/_ckernel.c"],
            # Same flags as tools/build_kernel.py: no fused multiply-add.
            extra_compile_args=["-ffp-contract=off"],
            libraries=["m"],
            optional=True,
        ),
    ],
    cmdclass={"build_ext": OptionalBuildExt},
    extras_require={"mesh": ["networkx"]},
)
