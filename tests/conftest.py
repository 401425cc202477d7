"""Shared fixtures for the repro test suite."""

import pathlib
import subprocess
import sys

import pytest

from repro.core import Simulator
from repro.core.engine import (ckernel_available, default_kernel,
                               resolve_kernel)
from repro.mac.addresses import reset_allocator
from repro.traffic.generators import _SourceBase

SPECS_DIR = pathlib.Path(__file__).resolve().parents[1] / "specs"


def _build_kernel():
    """Bring ``repro.core._ckernel`` up to date with its source (a
    compile in a fresh checkout, an mtime check afterwards), so a
    machine with a compiler proves the compiled kernel against the
    Python one in tier-1 instead of skipping those tests.  A failed
    build says so on stderr, removes any stale ``.so`` and leaves the
    session on the pure-Python kernel; the warning below then counts
    what goes unproven."""
    script = pathlib.Path(__file__).resolve().parents[1] \
        / "tools" / "build_kernel.py"
    subprocess.run([sys.executable, str(script)], stdout=subprocess.DEVNULL,
                   check=False)


# At import: test modules ask ``ckernel_available()`` while they are
# collected, and the first probe's answer is cached for the process.
_build_kernel()


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
            "         The build was attempted and failed; see: "
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


@pytest.fixture
def spec_job():
    """``spec_job(name, {spec path: value, ...})``: the concrete job of
    the one-job spec ``specs/<name>.toml``, each override then applied
    with ``set_path`` (``{"scenario.seed": 38}``,
    ``{"mode.telemetry": True}``)."""
    from repro.campaign import expand_grid, load_spec
    from repro.campaign.spec import set_path

    def job(name, overrides=None):
        only, = expand_grid(load_spec(SPECS_DIR / f"{name}.toml"))
        for path, value in (overrides or {}).items():
            set_path(only.spec, path, value)
        return only.spec
    return job
