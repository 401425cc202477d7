"""Frame error models: from SNR to packet delivery.

The link abstraction used across the simulator is:

    SINR --(modulation BER curve)--> bit error rate
         --(independent-bit assumption)--> packet error rate
         --(RNG draw)--> delivered / corrupted

The independent-bit PER is pessimistic versus real interleaved/coded
links but preserves the monotone SNR-vs-distance behaviour every
experiment here depends on.  A deterministic threshold model is also
provided for tests and topology experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .modulation import Modulation


class ErrorModel:
    """Abstract base: decide whether a frame survives the channel."""

    def packet_error_rate(self, snr_db: float, size_bits: int,
                          modulation: Modulation) -> float:
        raise NotImplementedError

    def frame_survives(self, snr_db: float, size_bits: int,
                       modulation: Modulation, rng: random.Random) -> bool:
        """Sample delivery success for one frame."""
        per = self.packet_error_rate(snr_db, size_bits, modulation)
        return rng.random() >= per


@dataclass
class BerErrorModel(ErrorModel):
    """PER from the modulation's BER curve, assuming independent bits.

    ``per = 1 - (1 - ber)^bits``, computed in log space with
    ``log1p``/``expm1`` so tiny BERs don't underflow to "perfect link".
    """

    def packet_error_rate(self, snr_db: float, size_bits: int,
                          modulation: Modulation) -> float:
        if size_bits <= 0:
            return 0.0
        ber = modulation.ber(snr_db)
        if ber <= 0.0:
            return 0.0
        if ber >= 1.0:
            return 1.0
        log_success = size_bits * math.log1p(-ber)
        return -math.expm1(log_success)

    def frame_survives(self, snr_db: float, size_bits: int,
                       modulation: Modulation, rng: random.Random) -> bool:
        """Sample delivery success (once per decoded frame per receiver).
        :meth:`packet_error_rate` is a pure function of its exact inputs
        and stationary topologies repeat the same few SINRs, so it is
        memoized — in a dict the compiled reception tail (``_ckernel``)
        probes under the same key and limit rule.  The RNG is drawn once,
        after the PER is known (a miss that raises draws nothing)."""
        key = (snr_db, size_bits, modulation.memo_id)
        try:
            per = _per_cache[key]
        except KeyError:
            per = self.packet_error_rate(snr_db, size_bits, modulation)
            if len(_per_cache) >= _PER_CACHE_LIMIT:
                _per_cache.clear()
            _per_cache[key] = per
        return rng.random() >= per


#: Memoized packet error rates keyed by the exact (snr, bits,
#: Modulation.memo_id) inputs — the id is interned per parameter set, so
#: distinct sets never share an entry even if their names collide, and a
#: probe hashes two numbers and a small int, no Python object;
#: pure-function cache, see BerErrorModel.frame_survives.
_per_cache: dict = {}
_PER_CACHE_LIMIT = 1 << 16


@dataclass
class SnrThresholdErrorModel(ErrorModel):
    """Deterministic cliff: perfect above ``threshold_db``, lost below.

    The threshold can be offset relative to the per-modulation minimum
    SNR carried by the PHY standard; here it is an absolute dB value.
    """

    threshold_db: float

    def packet_error_rate(self, snr_db: float, size_bits: int,
                          modulation: Modulation) -> float:
        return 0.0 if snr_db >= self.threshold_db else 1.0


@dataclass
class FixedPerErrorModel(ErrorModel):
    """A constant packet error rate regardless of SNR.

    Used to inject controlled loss in MAC tests (retry/fragmentation
    behaviour under a known PER).
    """

    per: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.per <= 1.0:
            raise ValueError(f"per must be in [0, 1], got {self.per}")

    def packet_error_rate(self, snr_db: float, size_bits: int,
                          modulation: Modulation) -> float:
        return self.per
