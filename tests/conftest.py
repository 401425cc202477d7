"""Shared fixtures for the repro test suite."""

import pytest

from repro.core import Simulator
from repro.core.engine import (ckernel_available, default_kernel,
                               resolve_kernel)
from repro.mac.addresses import reset_allocator
from repro.traffic.generators import _SourceBase


def pytest_report_header(config):
    """Which event kernel this session's simulators run on."""
    if ckernel_available():
        return (f"repro kernel: {resolve_kernel()} (REPRO_KERNEL="
                f"{default_kernel()}; repro.core._ckernel is built)")
    return "repro kernel: python (repro.core._ckernel is NOT built)"


def pytest_report_collectionfinish(config, items):
    """Say how much goes unproven without the extension.  Printed after
    collection because only then is the count known, and because pytest
    drops the header under ``-q`` (the tier-1 command) but not this."""
    if ckernel_available():
        return []
    skipping = sum(
        1 for item in items
        if any(marker.args and marker.args[0] is True
               and marker.kwargs.get("reason", "").startswith(
                   "compiled kernel not built")
               for marker in item.iter_markers("skipif")))
    return [f"WARNING: repro.core._ckernel is NOT built: {skipping} kernel "
            f"parity/selector tests will SKIP, so the compiled kernel is "
            f"not proven equal to the Python one in this session.",
            "         Enable them with: "
            "PYTHONPATH=src python tools/build_kernel.py"]


@pytest.fixture(autouse=True)
def _fresh_addresses():
    """Give every test a clean MAC address space and flow-id space, so
    RNG stream names derived from them are reproducible regardless of
    test execution order."""
    reset_allocator()
    _SourceBase._next_flow_id = 1
    yield
    reset_allocator()
    _SourceBase._next_flow_id = 1


@pytest.fixture
def sim():
    """A deterministic simulator with a fixed seed."""
    return Simulator(seed=42)
