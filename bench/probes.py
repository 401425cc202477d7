"""Layer probes: one public call timed with no other layer attached.

Each probe reports the median of a few rounds, so a layer's own cost can
be followed without the workloads' mix of layers around it.
"""

from __future__ import annotations

import pathlib
import shutil
from statistics import median
from time import perf_counter
from typing import Any

from repro.campaign import Manifest, expand_grid, run_job, validate_spec
from repro.core.engine import Simulator, Timer
from repro.core.topology import circle_layout
from repro.core.trace import TraceLog
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio

from .workloads import campaign_spec

_ROUNDS = 5


def _noop(*_args: Any) -> None:
    pass


def dispatch_ns(scale: float) -> float:
    """Host nanoseconds to schedule and dispatch one no-op event:
    30 000 each (at scale 1) through ``schedule``, ``schedule_fast`` and
    a re-arming ``Timer``."""
    events = max(100, round(30_000 * scale))

    def one_round() -> float:
        sim = Simulator(seed=0, trace=TraceLog(enabled=False))
        remaining = [events]

        def rearm() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                timer.schedule(1e-6)

        timer = Timer(sim, rearm)
        start = perf_counter()
        for index in range(events):
            sim.schedule(index * 1e-6, _noop)
            sim.schedule_fast(index * 1e-6, _noop)
        timer.schedule(1e-6)
        sim.run()
        elapsed = perf_counter() - start
        if sim.events_executed != 3 * events:
            raise RuntimeError(f"dispatch probe ran {sim.events_executed} "
                               f"events, expected {3 * events}")
        return elapsed / (3 * events) * 1e9

    return median(one_round() for _ in range(_ROUNDS))


def transmit_us(scale: float, receivers: int = 100) -> float:
    """Host microseconds of one ``Medium.transmit`` fanning out to
    ``receivers`` bare radios (no MAC, the default no-op listener).
    The arrivals are drained untimed between calls."""
    frames = max(10, round(300 * scale))
    sim = Simulator(seed=0, trace=TraceLog(enabled=False))
    medium = Medium(sim, FixedLoss(50.0))
    sender = Radio("probe-tx", medium, DOT11B, circle_layout(1, 1.0)[0])
    for index, position in enumerate(circle_layout(receivers, 10.0)):
        Radio(f"probe-rx{index}", medium, DOT11B, position)
    mode = DOT11B.modes[-1]
    power_watts = 0.1
    samples = []
    for _ in range(_ROUNDS):
        elapsed = 0.0
        for _ in range(frames):
            start = perf_counter()
            medium.transmit(sender, None, 8000, mode, 1e-3, power_watts)
            elapsed += perf_counter() - start
            sim.run(until=sim.now + 2e-3)
        samples.append(elapsed / frames * 1e6)
    if medium.plan_misses != 1:
        raise RuntimeError(f"transmit probe compiled {medium.plan_misses} "
                           f"plans, expected 1")
    return median(samples)


def record_ms(directory: pathlib.Path, entries: int = 512,
              records: int = 10) -> float:
    """Host milliseconds of one ``Manifest.record_done`` (serialise,
    write, fsync, rename) on a manifest already holding ``entries`` rows
    of a real ``campaign_grid`` job."""
    row = run_job(expand_grid(validate_spec(campaign_spec(0, 2)))[0].spec)
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        manifest = Manifest(directory / "probe.manifest.json", "probe",
                            "0" * 40)
        for index in range(entries):
            manifest.jobs[f"{index:040x}"] = {"status": "done", "row": row}
        samples = []
        for index in range(entries, entries + records):
            start = perf_counter()
            manifest.record_done(f"{index:040x}", row)
            samples.append((perf_counter() - start) * 1e3)
        return median(samples)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
