"""Shared scenario for the backoff tie-break golden-trace test.

Four saturated stations sit at exactly equal distances from one
receiver, so every station sees every CCA edge at the same instant and
their backoff slot grids stay perfectly aligned.  Whenever two stations
draw the same residual backoff, their countdowns expire in the *same
slot* and the kernel's schedule-time/sequence ordering alone decides
who transmits first (and that both transmit — the classic same-slot
collision).  The golden fixture captured from the slot-by-slot
countdown pins that ordering; the batched countdown must reproduce it
event for event.

This module is imported both by the regression test and by
``tools/capture_golden.py`` (which regenerated the fixture from the
pre-refactor core); keep the topology and seeds byte-stable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core import Position, Simulator
from repro.core.trace import TraceLog
from repro.mac.addresses import allocate_address, reset_allocator
from repro.mac.dcf import DcfConfig, DcfMac
from repro.mac.rate_adapt import fixed_rate_factory
from repro.phy.channel import Medium
from repro.phy.propagation import FixedLoss
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio
from repro.traffic import DeliveryCounter, SaturatingSource

#: Bump only when the scenario itself changes (forces fixture regen).
SCENARIO_VERSION = 1

SEED = 3
HORIZON = 0.25
#: Exactly equidistant station positions: identical propagation delay,
#: hence identical CCA-edge timestamps and aligned slot grids.
POSITIONS = (
    Position(12.0, 0.0, 0.0),
    Position(-12.0, 0.0, 0.0),
    Position(0.0, 12.0, 0.0),
    Position(0.0, -12.0, 0.0),
)


def run_tiebreak_scenario() -> Tuple[List[str], Dict[str, Any]]:
    """Run the scenario; return (trace lines, outcome stats).

    Each trace line carries ``repr()``-exact timestamps, so comparing
    the line list is a byte-identical comparison of the protocol event
    sequence (who transmitted when, what decoded, in which order).
    """
    reset_allocator()
    trace = TraceLog(capacity=None, enabled=True)
    sim = Simulator(seed=SEED, trace=trace)
    medium = Medium(sim, FixedLoss(50.0))
    config = DcfConfig()
    factory = fixed_rate_factory("CCK-11")
    receiver_radio = Radio("rx", medium, DOT11B, Position(0.0, 0.0, 0.0))
    receiver = DcfMac(sim, receiver_radio, allocate_address(), config=config,
                      rate_factory=factory)
    counter = receiver.listener = DeliveryCounter()
    payload = bytes(600)
    macs = []
    for index, position in enumerate(POSITIONS):
        radio = Radio(f"tx{index}", medium, DOT11B, position)
        mac = DcfMac(sim, radio, allocate_address(), config=config,
                     rate_factory=factory)
        # Keeps the queue non-empty so every station always contends.
        mac.listener = SaturatingSource(mac, receiver.address, payload)
        macs.append(mac)
    sim.run(until=HORIZON)
    lines = [
        f"{record.time!r} {record.source} {record.event} "
        + " ".join(f"{key}={value!r}"
                   for key, value in sorted(record.detail.items()))
        for record in trace
    ]
    stats = {
        "rx_frames": counter.frames,
        "rx_bytes": counter.bytes,
        "tx_data": sum(mac.counters.get("tx_data") for mac in macs),
        "ack_timeouts": sum(mac.counters.get("ack_timeouts")
                            for mac in macs),
    }
    return lines, stats


def same_slot_transmissions(lines: List[str]) -> int:
    """Count instants where two+ different stations start transmitting
    at the identical timestamp — the same-slot ties the fixture exists
    to pin down."""
    starts: Dict[str, set] = {}
    for line in lines:
        time_repr, source, event = line.split(" ", 3)[:3]
        if event == "phy-tx-start" and source != "rx":
            starts.setdefault(time_repr, set()).add(source)
    return sum(1 for sources in starts.values() if len(sources) > 1)
