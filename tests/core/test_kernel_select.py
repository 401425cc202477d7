"""Kernel selection semantics: ``Simulator(kernel=...)``, the
``REPRO_KERNEL`` environment override, the strict explicit-``"c"``
contract and a stale built extension."""

import sys
import types

import pytest

import repro.core
from repro.core import Simulator, engine
from repro.core.engine import (KERNELS, ckernel_available, default_kernel,
                               resolve_kernel)
from repro.core.errors import SimulationError

HAVE_C = ckernel_available()
needs_c = pytest.mark.skipif(not HAVE_C,
                             reason="compiled kernel not built")
needs_no_c = pytest.mark.skipif(HAVE_C,
                                reason="compiled kernel is built")


class TestResolveKernel:
    def test_python_always_resolves(self):
        assert resolve_kernel("python") == "python"
        assert Simulator(kernel="python").kernel == "python"

    def test_unknown_kernel_raises(self):
        with pytest.raises(SimulationError, match="unknown kernel"):
            resolve_kernel("rust")
        with pytest.raises(SimulationError, match="unknown kernel"):
            Simulator(kernel="rust")

    def test_auto_resolves_to_a_concrete_kernel(self):
        assert resolve_kernel("auto") == ("c" if HAVE_C else "python")
        assert Simulator(kernel="auto").kernel in ("python", "c")

    def test_kernels_tuple_exposed_on_simulator(self):
        assert Simulator.KERNELS == KERNELS == ("auto", "python", "c")

    @needs_c
    def test_explicit_c_selects_compiled_loop(self):
        sim = Simulator(kernel="c")
        assert sim.kernel == "c"
        assert sim._ext is not None

    @needs_no_c
    def test_explicit_c_without_extension_is_an_error(self):
        # An explicit request must never silently run the other kernel:
        # CI's REPRO_KERNEL=c lane relies on this to prove the compiled
        # path actually executed.
        with pytest.raises(SimulationError, match="build_kernel"):
            resolve_kernel("c")


class TestStaleExtension:
    """A ``.so`` built from an older ``_ckernel.c`` lacks entry points
    this engine calls; it must count as not built, loudly, once."""

    @pytest.fixture
    def stale(self, monkeypatch):
        ext = types.ModuleType("repro.core._ckernel")
        ext.KERNEL_ABI = engine.KERNEL_ABI - 1
        ext.resolve = ext.run = lambda *args: pytest.fail(
            "a stale extension must not be bound or run")
        monkeypatch.setitem(sys.modules, "repro.core._ckernel", ext)
        monkeypatch.setattr(repro.core, "_ckernel", ext, raising=False)
        monkeypatch.setattr(engine, "_ckernel", None)
        monkeypatch.setattr(engine, "_ckernel_checked", False)
        return ext

    def test_wrong_abi_is_not_built_with_one_warning(self, stale, recwarn):
        with pytest.warns(
                RuntimeWarning,
                match=rf"ABI {engine.KERNEL_ABI - 1}.*needs "
                      rf"{engine.KERNEL_ABI}.*build_kernel\.py --force"):
            assert not ckernel_available()
        recwarn.clear()
        assert resolve_kernel("auto") == "python"      # and says it once
        sim = Simulator(kernel="auto")
        assert sim.kernel == "python" and sim._ext is None
        sim.schedule(0.5, lambda: None)
        assert sim.run() == 0.5
        with pytest.raises(SimulationError, match="build_kernel.py --force"):
            resolve_kernel("c")
        assert not recwarn.list

    def test_an_extension_from_before_the_transmit_observers_is_stale(
            self, stale):
        # ABI 13's transmit twin calls the medium's ``observers`` after
        # the fan-out; an ABI 12 build would serve a probed medium and
        # count nothing.
        stale.KERNEL_ABI = 12
        with pytest.warns(RuntimeWarning,
                          match=rf"ABI 12.*needs {engine.KERNEL_ABI}"):
            assert not ckernel_available()

    def test_an_extension_with_a_nav_twin_is_stale(self, stale):
        # ABI 14 resolves the Nav in the "mac" class set.  An ABI 13
        # build waits for a "nav" set nothing resolves any more, so its
        # MAC twins would hand every step that reads the NAV to Python.
        assert engine.KERNEL_ABI == 14
        stale.KERNEL_ABI = 13
        with pytest.warns(RuntimeWarning, match="ABI 13.*needs 14"):
            assert not ckernel_available()

    def test_an_extension_without_an_abi_is_stale_too(self, stale):
        del stale.KERNEL_ABI
        with pytest.warns(RuntimeWarning, match="ABI None"):
            assert not ckernel_available()


class TestEnvOverride:
    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert default_kernel() == "python"
        assert Simulator().kernel == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert default_kernel() == "auto"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        assert Simulator(kernel="python").kernel == "python"

    def test_unknown_env_kernel_raises_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fast")
        with pytest.raises(SimulationError, match="unknown kernel"):
            Simulator()


@needs_c
class TestStrictCKernelRuns:
    def test_c_kernel_reentrancy_guard(self):
        sim = Simulator(kernel="c")
        seen = []

        def reenter():
            with pytest.raises(SimulationError, match="re-entrantly"):
                sim.run()
            seen.append(sim.now)

        sim.schedule(0.1, reenter)
        sim.run()
        assert seen == [0.1]

    def test_c_kernel_strict_after_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "c")
        assert Simulator().kernel == "c"
