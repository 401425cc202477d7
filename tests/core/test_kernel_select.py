"""Kernel selection semantics: ``Simulator(kernel=...)``, the
``REPRO_KERNEL`` environment override, the strict explicit-``"c"``
contract, a stale built extension, ``pin_python_kernel``, and the
telemetry-probe bypass."""

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
        ext.install = ext.run = lambda *args: pytest.fail(
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

    def test_an_extension_that_binds_the_exact_slot_is_stale(self, stale):
        # ABI 7 dropped the radio's ``_exact`` slot from bind_phy; a
        # build that still looks it up would fail every medium built on
        # a C-kernel simulator.
        assert engine.KERNEL_ABI == 7
        stale.KERNEL_ABI = 6
        with pytest.warns(RuntimeWarning, match="ABI 6.*needs 7"):
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


class TestPinPythonKernel:
    def test_pin_is_idempotent_on_python_kernel(self):
        sim = Simulator(kernel="python")
        sim.pin_python_kernel()
        assert sim.kernel == "python"
        sim.schedule(0.5, lambda: None)
        assert sim.run() == 0.5

    @needs_c
    def test_pin_downgrades_a_c_simulator(self):
        sim = Simulator(kernel="c")
        sim.pin_python_kernel()
        assert sim.kernel == "python"
        assert sim._ext is None
        sim.schedule(0.5, lambda: None)
        assert sim.run() == 0.5

    @needs_c
    def test_pin_changes_the_loop_not_what_is_already_bound(self):
        # Edges a medium bound and the scheduling primitives stay
        # compiled (they build the same entries for either loop); a
        # medium built after the pin binds the Python edges.
        from repro.core import Position
        from repro.phy.channel import Medium
        from repro.phy.propagation import FixedLoss
        from repro.phy.standards import DOT11B
        from repro.phy.transceiver import Radio
        sim = Simulator(kernel="c")
        ext = sim._ext
        before = Medium(sim, FixedLoss(50.0))
        radio = Radio("a", before, DOT11B, Position(0, 0, 0))
        bound = before._channel_members(1)[0][1]
        sim.pin_python_kernel()
        assert sim._ext is None and sim._arm is ext.arm
        assert before._channel_members(1)[0][1] is bound
        assert bound.__func__ is ext.arrival_begins
        after = Medium(sim, FixedLoss(50.0))
        other = Radio("b", after, DOT11B, Position(0, 0, 0))
        assert after._channel_members(1)[0][1].__func__ \
            is Radio.arrival_begins
        radio.transmit_energy(1e-3)
        other.transmit_energy(1e-3)
        sim.run(until=0.01)

    @needs_c
    def test_pin_midlife_pops_a_populated_c_queue_in_the_same_order(
            self, midlife_schedule):
        # The pinned Python loop takes tuples out of the C queue the
        # compiled loop filled, while ``sim._arm`` / ``sim._fan_out``
        # keep pushing structs into it: same firing order, same
        # counters as the schedule run on either kernel untouched.
        from repro.core import _ckernel

        def pin(sim):
            assert type(sim._heap) is _ckernel.EventQueue
            sim.pin_python_kernel()
            assert sim._ext is None and sim._arm is _ckernel.arm
            assert type(sim._heap) is _ckernel.EventQueue    # kept, full

        reference = midlife_schedule("python")
        assert midlife_schedule("c") == reference
        assert midlife_schedule("c", pin) == reference
        fired, counters = reference
        assert {name for _now, name in fired} >= {
            "handle", "raw", "timer0", "begins", "ends"}
        assert counters[3:5] == (0, 0)          # drained, nothing pending

    @needs_c
    def test_dispatch_probe_shadows_past_the_c_kernel(self):
        # Telemetry's instrumented dispatch loop is an instance-attribute
        # shadow of ``run``; callers reach it before the class method's
        # C dispatch, so arming it needs no kernel flag at all.
        from repro.telemetry import MetricsRegistry, KernelDispatchProbe
        sim = Simulator(kernel="c")
        probe = KernelDispatchProbe(
            sim, MetricsRegistry(enabled=True)).install()
        sim.schedule(0.25, lambda: None)
        sim.schedule_fast(0.5, lambda: None)
        sim.run()
        assert "run" in vars(sim)          # the shadow is in place
        assert probe.dispatch_handle.value == 1
        assert probe.dispatch_fast.value == 1
        probe.uninstall()
        assert "run" not in vars(sim)      # class method resurfaces


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
