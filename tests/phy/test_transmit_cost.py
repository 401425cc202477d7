"""A frame a MAC sends enters no Python transmit code on the compiled
kernel, counted, not timed.

On ``kernel="c"`` a plain ``DcfMac`` sends through the ``transmit`` its
radio was served (``radio._transmit``), and a plain radio on a plain
``Medium`` builds the frame, fans it out and ends it in
``repro.core._ckernel``.  Every frame of a small saturated cell
(``specs/dcf_saturation_100.toml`` cut to five senders) is sent by a
MAC, so under ``cProfile`` the cell must call none of
``Radio.transmit``, ``Radio._tx_complete``, ``Medium.transmit`` and
``Transmission.__init__`` — the Python kernel calls each once or more
per frame — and its stats must be the Python kernel's.  The count is a
pure function of the seed: load on the machine cannot move it.
"""

import cProfile
import pstats

import pytest

from repro.campaign import run_job
from repro.core.engine import ckernel_available
from repro.phy.channel import Medium, Transmission
from repro.phy.transceiver import Radio

#: The Python transmit path, by ``pstats`` key.
TRANSMIT_PATH = {
    (code.co_filename, code.co_firstlineno, code.co_name):
        function.__qualname__
    for function in (Radio.transmit, Radio._tx_complete, Medium.transmit,
                     Transmission.__init__)
    for code in (function.__code__,)}


def _profiled(job):
    """The job's stats and its calls of each function of the path."""
    profile = cProfile.Profile()
    stats = profile.runcall(run_job, job)
    calls = dict.fromkeys(TRANSMIT_PATH.values(), 0)
    for key, (_primitive, count, *_rest) \
            in pstats.Stats(profile).stats.items():
        if key in TRANSMIT_PATH:
            calls[TRANSMIT_PATH[key]] = count
    return stats, calls


@pytest.fixture
def cell(spec_job):
    def job(kernel):
        return spec_job("dcf_saturation_100", {
            "mode.kernel": kernel, "scenario.horizon": 0.05,
            "scenario.params.stations_per_bss": 5})
    return job


def test_a_mac_frame_costs_no_python_transmit_call(cell):
    if not ckernel_available():
        pytest.skip("compiled kernel not built "
                    "(run: python tools/build_kernel.py)")
    reference, python_calls = _profiled(cell("python"))
    frames = reference["fanout_plan_hits"] + reference["fanout_plan_misses"]
    assert frames > 0, "nothing was sent: the row tests nothing"
    # One of each per frame; the last may end past the horizon.
    assert python_calls["Radio.transmit"] == frames
    assert min(python_calls.values()) >= frames - 1
    stats, calls = _profiled(cell("c"))
    assert calls == dict.fromkeys(TRANSMIT_PATH.values(), 0)
    assert stats == reference
