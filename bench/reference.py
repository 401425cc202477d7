"""The host-speed reference: fixed work, timed next to every sample.

The box is a few cores of a shared host, and its speed moves in steps of
10 to 30 % that last from seconds to minutes (a busy sibling thread, the
clock): ten runs of one commit spread as far as the bound a regression is
held to.  The steps scale all code the processor bounds alike, so the
harness times this loop before and after every sample of such a
workload and reports each time *at reference speed*:
``measured * NOMINAL_S / reference``.  On a calm host that changes
nothing; across a step it removes the step (ten-run spread of
``emitter_field``: 16.1 % as the clock read it, 2.5 % at reference
speed; README.md has every workload).

The loop imports nothing from ``repro``, so no change to the simulator
moves it: a regression there shows at full size.  It has the
simulator's flavour (a heap of timed callbacks, method calls, dictionary
and float arithmetic) and a working set that stays in cache; a
reference with a 4096-node working set tracked the workloads worse.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Seconds the loop takes on this box in its usual state (median of 300
#: calls): the speed every reported time is scaled to.  A constant, so a
#: ratio of two reported times never depends on it.
NOMINAL_S = 0.167

_STEPS = 200_000


class _Node:
    __slots__ = ("fired", "table")

    def __init__(self) -> None:
        self.fired = 0
        self.table: dict = {}

    def fire(self, now: float, key: int) -> int:
        self.fired += 1
        table = self.table
        slot = key & 1023
        table[slot] = table.get(slot, 0.0) + now * 1e-3
        return (key * 1103515245 + 12345) & 0x7FFFFFFF


def reference_s(scale: float = 1.0) -> float:
    """Seconds the fixed loop takes now, collector off, scaled back to
    the full loop when ``--scale`` shrinks it for the smoke test."""
    scale = min(1.0, scale)
    nodes = [_Node() for _ in range(64)]
    heap = [(index * 1e-6, index, nodes[index & 63]) for index in range(256)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    key, sequence = 1, 256
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(round(_STEPS * scale)):
            now, _, node = pop(heap)
            key = node.fire(now, key)
            sequence += 1
            push(heap, (now + (key & 255) * 1e-6, sequence,
                        nodes[(key >> 8) & 63]))
        return (perf_counter() - start) / scale
    finally:
        if collecting:
            gc.enable()
