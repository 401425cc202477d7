"""Network Allocation Vector — virtual carrier sensing.

Every 802.11 frame's duration field announces how long the remainder of
its frame exchange will occupy the medium.  Stations that overhear a
frame *not addressed to them* set their NAV accordingly and treat the
medium as busy until it expires, even if the air goes quiet — this is
what protects an ACK (or a CTS-reserved data frame) from a station that
cannot hear the other end of the exchange.

The NAV only ever moves forward: a shorter overheard duration never
truncates a longer reservation already in place.
"""

from __future__ import annotations

from types import MethodType
from typing import Callable, Optional

from ..core.engine import Simulator, Timer


class Nav:
    """Per-station NAV timer with an expiry callback.

    Every overheard reservation extends the NAV and re-anchors the
    expiry, so the timer churns on every overheard frame in a busy
    cell; it therefore rides on the kernel's reusable
    :class:`~repro.core.engine.Timer` (re-anchor without a fresh
    :class:`~repro.core.engine.EventHandle` per update); on a C-kernel
    simulator it fires ``_ckernel._fire``, :meth:`_fire`'s compiled twin,
    and the compiled frame demux repeats :meth:`set_until`'s statements
    for an overheard reservation (``tests/mac/test_access_parity.py``).
    """

    __slots__ = ("_sim", "_until", "_on_expire", "_timer")

    def __init__(self, sim: Simulator,
                 on_expire: Optional[Callable[[], None]] = None):
        self._sim = sim
        self._until = 0.0
        self._on_expire = on_expire
        ext = sim._ext
        self._timer = Timer(sim, MethodType(ext._fire, self)
                            if ext is not None and type(self) is Nav
                            else self._fire)

    @property
    def busy(self) -> bool:
        """True while the NAV reservation is in the future."""
        return self._sim._now < self._until

    @property
    def until(self) -> float:
        return self._until

    def set_until(self, time: float) -> None:
        """Extend the NAV to ``time`` (ignored if it would shorten it)."""
        if time <= self._until:
            return
        self._until = time
        if self._on_expire is not None:
            # Unchecked arm, once per overheard frame in a busy cell.
            # The deadline is now + max(time - now, 0.0), the floats
            # schedule(delay) historically produced (not `time`); frame
            # duration fields are finite, so no bounds check is needed.
            sim = self._sim
            now = sim._now
            delay = time - now
            sim._arm(self._timer, now + (delay if delay > 0.0 else 0.0))

    def set_duration(self, duration: float) -> None:
        """Extend the NAV ``duration`` seconds from now."""
        self.set_until(self._sim._now + duration)

    def clear(self) -> None:
        """Cancel the reservation (e.g. CF-End, or test teardown)."""
        self._until = 0.0
        self._timer.cancel()

    def _fire(self) -> None:
        if not self.busy and self._on_expire is not None:
            self._on_expire()
