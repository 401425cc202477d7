"""Driver-level rate adaptation algorithms.

This module is the "MAC/driver-level wireless mechanism" at the heart
of the library: the algorithms that pick which PHY mode each frame is
sent at, using only the feedback a real driver has (ACK received or
not), plus an oracle baseline that peeks at the channel.

* :class:`FixedRate` — pin one mode (the per-rate baselines).
* :class:`Arf` — Automatic Rate Fallback: step up after N consecutive
  successes or a probe timer, step down after 2 consecutive failures;
  the classic WaveLAN-II algorithm.
* :class:`Aarf` — Adaptive ARF: like ARF but doubles the success
  threshold every time an up-probe immediately fails, which suppresses
  the ARF probe-thrash on a stable channel.
* :class:`IdealSnr` — oracle that selects the fastest mode the measured
  SNR supports; the upper bound used in the benchmarks.

All controllers are per-peer: a MAC keeps one controller instance per
destination (different links have different channels).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.errors import ConfigurationError
from .addresses import MacAddress
from ..phy.standards import PhyMode, PhyStandard


class RateController:
    """Interface: pick a mode, learn from per-frame outcomes."""

    def __init__(self, standard: PhyStandard):
        self.standard = standard

    def current_mode(self) -> PhyMode:
        raise NotImplementedError

    def on_success(self) -> None:
        """An ACK came back for a frame sent at the current mode."""

    def on_failure(self) -> None:
        """A frame sent at the current mode exhausted a retry (no ACK)."""

    def on_snr_measurement(self, snr_db: float) -> None:
        """Optional feedback from received frames (used by IdealSnr).
        Override it to listen: the compiled frame demux does not call a
        class that inherits this no-op (``_ckernel.phy_rx_end``)."""


class FixedRate(RateController):
    """Always use one pinned mode."""

    def __init__(self, standard: PhyStandard, mode: PhyMode):
        super().__init__(standard)
        if mode.name not in {m.name for m in standard.modes}:
            raise ConfigurationError(
                f"{mode.name} is not a {standard.name} mode")
        self._mode = mode

    def current_mode(self) -> PhyMode:
        return self._mode


class Arf(RateController):
    """Automatic Rate Fallback (Kamerman & Monteban).

    State: an index into the standard's rate ladder.

    * After ``success_threshold`` consecutive successes (or when the
      probe timer of ``timer_threshold`` transmissions expires), move up
      one rate; the first transmission at the new rate is a *probe*.
    * After ``failure_threshold`` consecutive failures — or a single
      failure on a probe — move down one rate.
    """

    def __init__(self, standard: PhyStandard, success_threshold: int = 10,
                 failure_threshold: int = 2, timer_threshold: int = 15,
                 initial_index: Optional[int] = None):
        super().__init__(standard)
        if success_threshold < 1 or failure_threshold < 1:
            raise ConfigurationError("thresholds must be >= 1")
        self.success_threshold = success_threshold
        self.failure_threshold = failure_threshold
        self.timer_threshold = timer_threshold
        self._index = (len(standard.modes) - 1 if initial_index is None
                       else initial_index)
        if not 0 <= self._index < len(standard.modes):
            raise ConfigurationError(f"bad initial index {self._index}")
        self._successes = 0
        self._failures = 0
        self._timer = 0
        self._probing = False
        self.rate_increases = 0
        self.rate_decreases = 0

    @property
    def index(self) -> int:
        return self._index

    def current_mode(self) -> PhyMode:
        return self.standard.modes[self._index]

    def on_success(self) -> None:
        self._successes += 1
        self._failures = 0
        self._timer += 1
        self._probing = False
        if self._successes >= self.success_threshold or \
                self._timer >= self.timer_threshold:
            self._try_increase()

    def on_failure(self) -> None:
        self._failures += 1
        self._successes = 0
        self._timer = 0
        if self._probing:
            # A failed probe drops us straight back down.
            self._probing = False
            self._decrease()
            self._after_failed_probe()
            return
        if self._failures >= self.failure_threshold:
            self._failures = 0
            self._decrease()

    def _try_increase(self) -> None:
        self._successes = 0
        self._timer = 0
        if self._index < len(self.standard.modes) - 1:
            self._index += 1
            self._probing = True
            self.rate_increases += 1

    def _decrease(self) -> None:
        if self._index > 0:
            self._index -= 1
            self.rate_decreases += 1

    def _after_failed_probe(self) -> None:
        """Hook for AARF's adaptive threshold; plain ARF does nothing."""


class Aarf(Arf):
    """Adaptive ARF: failed probes double the success threshold.

    On a stable channel plain ARF keeps probing the next rate every
    ``success_threshold`` frames and losing one frame each time.  AARF
    doubles the threshold (up to ``max_success_threshold``) after each
    failed probe and resets it to the base value after a rate decrease
    caused by genuine failures, recovering ARF's fast downward response
    while eliminating most probe losses.
    """

    def __init__(self, standard: PhyStandard, success_threshold: int = 10,
                 failure_threshold: int = 2, timer_threshold: int = 15,
                 max_success_threshold: int = 60,
                 initial_index: Optional[int] = None):
        super().__init__(standard, success_threshold, failure_threshold,
                         timer_threshold, initial_index)
        self.base_success_threshold = success_threshold
        self.max_success_threshold = max_success_threshold

    def _after_failed_probe(self) -> None:
        self.success_threshold = min(self.success_threshold * 2,
                                     self.max_success_threshold)
        self.timer_threshold = self.success_threshold + 5

    def _decrease(self) -> None:
        if not self._probing:
            # A genuine (non-probe) downturn: channel changed, re-enable
            # fast upward probing.
            self.success_threshold = self.base_success_threshold
            self.timer_threshold = self.base_success_threshold + 5
        super()._decrease()


class IdealSnr(RateController):
    """Oracle controller: picks the best mode for the last measured SNR.

    The measurement normally comes from the SNR of received ACKs
    (symmetric-channel assumption); benchmarks may also feed it the
    true link SNR directly.  ``margin_db`` backs off the threshold to
    absorb estimation noise.
    """

    def __init__(self, standard: PhyStandard, margin_db: float = 1.0):
        super().__init__(standard)
        self.margin_db = margin_db
        self._snr_db: Optional[float] = None

    def on_snr_measurement(self, snr_db: float) -> None:
        self._snr_db = snr_db

    def current_mode(self) -> PhyMode:
        if self._snr_db is None:
            return self.standard.modes[0]
        mode = self.standard.best_mode_for_snr(self._snr_db - self.margin_db)
        return mode if mode is not None else self.standard.modes[0]


#: Factory signature used by MAC construction helpers.
RateControllerFactory = Callable[[PhyStandard], RateController]


def fixed_rate_factory(mode_name: str) -> RateControllerFactory:
    """Factory for a FixedRate pinned to a mode looked up by name."""

    def build(standard: PhyStandard) -> RateController:
        for mode in standard.modes:
            if mode.name == mode_name:
                return FixedRate(standard, mode)
        raise ConfigurationError(
            f"{standard.name} has no mode named {mode_name!r}")

    return build
