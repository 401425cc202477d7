"""Deterministic fault injection and strict-mode invariant checking.

The subsystem splits into three parts:

* :mod:`~repro.faults.injectors` — the mechanisms: link fades layered
  over any propagation model (:class:`LinkFader`), queue-pressure
  floods (:func:`inject_queue_pressure`).  Crash/restart lives on the
  components themselves (``Station.crash``, ``AccessPoint.crash``,
  ``MeshNode.crash``).
* :mod:`~repro.faults.schedule` — the policies: a declarative seeded
  timeline (:class:`FaultSchedule`) and a randomized storm generator
  (:class:`ChaosMonkey`), both logging every fired fault to a
  byte-comparable :class:`FaultLog`.
* :mod:`~repro.faults.invariants` — the safety net: an opt-in
  :class:`InvariantChecker` that audits kernel, MAC, PHY and routing
  state from inside the event loop.

Everything is seeded-deterministic: injector timing comes from
dedicated named RNG streams, so adding a fault schedule never perturbs
MAC backoff, PHY error, or routing jitter draws.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "injectors": ("DegradedPropagation", "LinkFader", "inject_queue_pressure"),
    "invariants": ("InvariantChecker", "NAV_MAX_LEGAL", "Violation"),
    "schedule": ("ChaosMonkey", "FaultLog", "FaultRecord", "FaultSchedule"),
})
