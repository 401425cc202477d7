"""Modulation schemes and bit-error-rate curves.

Each :class:`Modulation` maps a post-despreading signal-to-noise ratio
to a bit error probability.  The formulas are the textbook AWGN
expressions (Q-function based), with two wireless-specific twists:

* DSSS schemes get their processing gain applied to the SNR before the
  BER formula (an 11-chip Barker spread buys ~10.4 dB).
* Coded OFDM rates approximate convolutional coding by an *effective
  coding gain* subtracted from the required Eb/N0 — crude, but it
  reproduces the canonical monotone SNR ladder of 802.11a/g rates,
  which is what the rate-adaptation experiments need.

``snr`` here means SNR over the *occupied bandwidth*; conversion from
Eb/N0 uses the spectral efficiency of the mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.units import db_to_linear


#: sqrt(2), hoisted so the hot BER path does not recompute it per frame
#: (math.sqrt is correctly rounded, so the constant is bit-identical).
_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / _SQRT2)


@dataclass(frozen=True, slots=True)
class Modulation:
    """A named modulation with an AWGN BER curve.

    Attributes
    ----------
    name:
        Human-readable name ("BPSK", "64-QAM", "CCK-11", ...).
    bits_per_symbol:
        log2 of constellation size (after spreading, for DSSS).
    processing_gain_db:
        Spreading gain added to the received SNR before demodulation.
    coding_gain_db:
        Effective gain of forward error correction, subtracted from the
        required Eb/N0 (0 for uncoded schemes).
    code_rate:
        FEC code rate (1.0 = uncoded); scales net throughput.

    The compiled reception tail computes :meth:`ber` itself for an exact
    ``Modulation`` with float fields (see ``BerErrorModel``).
    """

    name: str
    bits_per_symbol: float
    processing_gain_db: float = 0.0
    coding_gain_db: float = 0.0
    code_rate: float = 1.0

    def ber(self, snr_db: float) -> float:
        """Bit error probability at the given SNR (dB over signal bandwidth).

        This is the innermost loop of every frame delivery decision, so
        the Eb/N0 conversion and the Q-function (:func:`q_function`) are
        fused inline.
        """
        effective_snr_db = snr_db + self.processing_gain_db + self.coding_gain_db
        snr = 10.0 ** (effective_snr_db / 10.0)
        # Convert bandwidth SNR to per-bit Eb/N0 via spectral efficiency.
        efficiency = self.bits_per_symbol * self.code_rate
        if efficiency <= 0:
            raise ValueError(f"non-positive spectral efficiency for {self.name}")
        ebno = snr / efficiency
        bits = self.bits_per_symbol
        if bits <= 2.0:
            # BPSK/DBPSK (and QPSK, same per-bit rate): Q(sqrt(2 Eb/N0)).
            return 0.5 * math.erfc(
                math.sqrt(max(2.0 * ebno, 0.0)) / _SQRT2)
        # Square M-QAM with Gray mapping (approximate):
        # BER ~= (4/k)(1 - 1/sqrt(M)) Q( sqrt(3 k Eb/N0 / (M - 1)) ).
        m = 2.0 ** bits
        coefficient = (4.0 / bits) * (1.0 - 1.0 / math.sqrt(m))
        argument = math.sqrt(max(3.0 * bits * ebno / (m - 1.0), 0.0))
        return min(coefficient * (0.5 * math.erfc(argument / _SQRT2)), 0.5)


# --- the modulations used by the standards catalogue ------------------------

#: 11-chip Barker spreading, as in original 802.11 DSSS 1/2 Mb/s.
BARKER_GAIN_DB = 10.0 * math.log10(11.0)

DBPSK_DSSS = Modulation("DBPSK/DSSS", bits_per_symbol=1.0,
                        processing_gain_db=BARKER_GAIN_DB)
DQPSK_DSSS = Modulation("DQPSK/DSSS", bits_per_symbol=2.0,
                        processing_gain_db=BARKER_GAIN_DB)

#: CCK: 8-chip complementary codes; modest spreading gain.
CCK_55 = Modulation("CCK-5.5", bits_per_symbol=4.0,
                    processing_gain_db=10.0 * math.log10(8.0) - 3.0)
CCK_11 = Modulation("CCK-11", bits_per_symbol=8.0,
                    processing_gain_db=10.0 * math.log10(8.0) - 3.0)

#: FHSS GFSK for the original 802.11 FH PHY and Bluetooth.
GFSK = Modulation("GFSK", bits_per_symbol=1.0, coding_gain_db=-1.0)

#: Coded OFDM modes (802.11a/g). Coding gains tuned so the resulting
#: SNR ladder matches the usual receiver-sensitivity spacing.
OFDM_BPSK_12 = Modulation("BPSK r1/2", 1.0, coding_gain_db=4.5, code_rate=0.5)
OFDM_BPSK_34 = Modulation("BPSK r3/4", 1.0, coding_gain_db=3.5, code_rate=0.75)
OFDM_QPSK_12 = Modulation("QPSK r1/2", 2.0, coding_gain_db=4.5, code_rate=0.5)
OFDM_QPSK_34 = Modulation("QPSK r3/4", 2.0, coding_gain_db=3.5, code_rate=0.75)
OFDM_16QAM_12 = Modulation("16QAM r1/2", 4.0, coding_gain_db=4.5, code_rate=0.5)
OFDM_16QAM_34 = Modulation("16QAM r3/4", 4.0, coding_gain_db=3.5, code_rate=0.75)
OFDM_64QAM_23 = Modulation("64QAM r2/3", 6.0, coding_gain_db=4.0, code_rate=2.0 / 3.0)
OFDM_64QAM_34 = Modulation("64QAM r3/4", 6.0, coding_gain_db=3.5, code_rate=0.75)
OFDM_64QAM_56 = Modulation("64QAM r5/6", 6.0, coding_gain_db=3.0, code_rate=5.0 / 6.0)
OFDM_256QAM_34 = Modulation("256QAM r3/4", 8.0, coding_gain_db=3.5, code_rate=0.75)
OFDM_256QAM_56 = Modulation("256QAM r5/6", 8.0, coding_gain_db=3.0, code_rate=5.0 / 6.0)

#: O-QPSK with 32-chip DSSS (802.15.4 / ZigBee 2.4 GHz).
OQPSK_154 = Modulation("O-QPSK/DSSS-15.4", bits_per_symbol=2.0,
                       processing_gain_db=10.0 * math.log10(8.0))

#: UWB pulse-position modulation; wide bandwidth gives processing gain.
PPM_UWB = Modulation("PPM/UWB", bits_per_symbol=1.0, processing_gain_db=6.0)
