"""The PHY standards catalogue.

This module encodes, as data, the PHY-layer facts the MAC needs and the
reproduction targets the benchmarks report:

* per-standard timing constants (slot, SIFS, preamble) and contention
  window bounds — these drive the DCF,
* per-standard rate ladders (:class:`PhyMode`) with the modulation used
  for error modelling and the minimum SNR used for ideal rate selection,
* the band, channel width, and nominal range/peak-rate figures from the
  source text's comparison tables (Fig 1.13 and the chapter 8 table).

Numbers follow the IEEE 802.11 family values as summarized in the source
text: 802.11 (FHSS, 1/2 Mb/s), 802.11b (DSSS/CCK, up to 11 Mb/s),
802.11a (OFDM, 5 GHz, up to 54 Mb/s), 802.11g (OFDM, 2.4 GHz, up to
54 Mb/s), 802.11n (MIMO, up to 600 Mb/s), 802.11ac (5 GHz, up to
1.3 Gb/s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.units import (
    dbm_to_watts,
    gbps,
    kbps,
    mbps,
    thermal_noise_watts,
    usec,
    watts_to_dbm,
)
from .modulation import (
    CCK_11,
    CCK_55,
    DBPSK_DSSS,
    DQPSK_DSSS,
    GFSK,
    Modulation,
    OFDM_16QAM_12,
    OFDM_16QAM_34,
    OFDM_64QAM_23,
    OFDM_64QAM_34,
    OFDM_64QAM_56,
    OFDM_256QAM_34,
    OFDM_256QAM_56,
    OFDM_BPSK_12,
    OFDM_BPSK_34,
    OFDM_QPSK_12,
    OFDM_QPSK_34,
)


@dataclass(frozen=True, slots=True)
class PhyMode:
    """One entry in a standard's rate ladder."""

    name: str
    data_rate_bps: float
    modulation: Modulation
    #: Minimum SNR (dB) at which this mode is considered usable; drives
    #: ideal rate selection and receiver sensitivity.
    min_snr_db: float
    #: Number of MIMO spatial streams carrying the rate (1 for legacy).
    spatial_streams: int = 1

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0:
            raise ConfigurationError(f"bad rate for mode {self.name}")


@dataclass(frozen=True)
class PhyStandard:
    """A member of the 802.11 family (or a kindred single-band PHY)."""

    name: str
    band_hz: float
    channel_width_hz: float
    slot_time: float
    sifs: float
    cw_min: int
    cw_max: int
    #: PLCP preamble + header airtime prepended to every frame.
    preamble_time: float
    modes: Tuple[PhyMode, ...]
    #: Rate used for control responses (ACK/CTS) and broadcasts.
    basic_rate_bps: float
    default_tx_power_dbm: float = 20.0
    noise_figure_db: float = 7.0
    #: Nominal range from the source text's comparison table (reporting).
    nominal_range_m: float = 100.0

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigurationError(f"{self.name}: no modes")
        rates = [mode.data_rate_bps for mode in self.modes]
        if rates != sorted(rates):
            raise ConfigurationError(f"{self.name}: modes must be sorted by rate")

    # --- derived timing --------------------------------------------------

    @property
    def difs(self) -> float:
        """DCF interframe space: SIFS + 2 slots."""
        return self.sifs + 2.0 * self.slot_time

    @property
    def eifs(self) -> float:
        """Extended IFS used after receiving an undecodable frame."""
        ack_bits = 14 * 8
        ack_time = self.preamble_time + ack_bits / self.basic_rate_bps
        return self.sifs + ack_time + self.difs

    # --- rates -----------------------------------------------------------

    @property
    def max_rate_bps(self) -> float:
        return self.modes[-1].data_rate_bps

    @property
    def min_rate_bps(self) -> float:
        return self.modes[0].data_rate_bps

    def mode_for_rate(self, rate_bps: float) -> PhyMode:
        for mode in self.modes:
            if abs(mode.data_rate_bps - rate_bps) < 0.5:
                return mode
        raise ConfigurationError(
            f"{self.name} has no {rate_bps / 1e6:.1f} Mb/s mode")

    def best_mode_for_snr(self, snr_db: float) -> Optional[PhyMode]:
        """Fastest mode whose SNR requirement is met, or None."""
        best = None
        for mode in self.modes:
            if snr_db >= mode.min_snr_db:
                best = mode
        return best

    def frame_airtime(self, size_bits: int, mode: PhyMode) -> float:
        """Airtime of a frame: PLCP preamble/header plus payload bits."""
        if size_bits < 0:
            raise ConfigurationError(f"negative frame size: {size_bits}")
        return self.preamble_time + size_bits / mode.data_rate_bps

    # --- link budget -------------------------------------------------------

    @property
    def noise_floor_watts(self) -> float:
        return thermal_noise_watts(self.channel_width_hz, self.noise_figure_db)

    @property
    def noise_floor_dbm(self) -> float:
        return watts_to_dbm(self.noise_floor_watts)

    def sensitivity_dbm(self, mode: PhyMode) -> float:
        """Receive power needed to hit the mode's minimum SNR."""
        return self.noise_floor_dbm + mode.min_snr_db


def _modes(*entries: Tuple[str, float, Modulation, float]) -> Tuple[PhyMode, ...]:
    return tuple(PhyMode(name, rate, modulation, snr)
                 for name, rate, modulation, snr in entries)


# --- the IEEE 802.11 family --------------------------------------------------

DOT11_LEGACY = PhyStandard(
    name="802.11",
    band_hz=2.4e9,
    channel_width_hz=1e6,
    slot_time=usec(50.0),
    sifs=usec(28.0),
    cw_min=15,
    cw_max=1023,
    preamble_time=usec(128.0),
    basic_rate_bps=mbps(1.0),
    modes=_modes(
        ("FHSS-1", mbps(1.0), GFSK, 4.0),
        ("FHSS-2", mbps(2.0), GFSK, 7.0),
    ),
    nominal_range_m=100.0,
)

DOT11B = PhyStandard(
    name="802.11b",
    band_hz=2.4e9,
    channel_width_hz=22e6,
    slot_time=usec(20.0),
    sifs=usec(10.0),
    cw_min=31,
    cw_max=1023,
    preamble_time=usec(192.0),
    basic_rate_bps=mbps(1.0),
    modes=_modes(
        ("DSSS-1", mbps(1.0), DBPSK_DSSS, 2.0),
        ("DSSS-2", mbps(2.0), DQPSK_DSSS, 5.0),
        ("CCK-5.5", mbps(5.5), CCK_55, 8.0),
        ("CCK-11", mbps(11.0), CCK_11, 11.0),
    ),
    nominal_range_m=100.0,
)

_OFDM_LADDER = (
    ("OFDM-6", mbps(6.0), OFDM_BPSK_12, 5.0),
    ("OFDM-9", mbps(9.0), OFDM_BPSK_34, 6.0),
    ("OFDM-12", mbps(12.0), OFDM_QPSK_12, 8.0),
    ("OFDM-18", mbps(18.0), OFDM_QPSK_34, 10.0),
    ("OFDM-24", mbps(24.0), OFDM_16QAM_12, 13.0),
    ("OFDM-36", mbps(36.0), OFDM_16QAM_34, 17.0),
    ("OFDM-48", mbps(48.0), OFDM_64QAM_23, 21.0),
    ("OFDM-54", mbps(54.0), OFDM_64QAM_34, 23.0),
)

DOT11A = PhyStandard(
    name="802.11a",
    band_hz=5.0e9,
    channel_width_hz=20e6,
    slot_time=usec(9.0),
    sifs=usec(16.0),
    cw_min=15,
    cw_max=1023,
    preamble_time=usec(20.0),
    basic_rate_bps=mbps(6.0),
    modes=_modes(*_OFDM_LADDER),
    nominal_range_m=100.0,
)

DOT11G = PhyStandard(
    name="802.11g",
    band_hz=2.4e9,
    channel_width_hz=20e6,
    slot_time=usec(20.0),  # long slot for 802.11b compatibility
    sifs=usec(10.0),
    cw_min=15,
    cw_max=1023,
    preamble_time=usec(20.0),
    basic_rate_bps=mbps(6.0),
    modes=_modes(*_OFDM_LADDER),
    nominal_range_m=100.0,
)

def _mimo_mode(name: str, per_stream_bps: float, streams: int,
               modulation: Modulation, snr: float) -> PhyMode:
    return PhyMode(name, per_stream_bps * streams, modulation, snr,
                   spatial_streams=streams)


DOT11N = PhyStandard(
    name="802.11n",
    band_hz=5.0e9,
    channel_width_hz=40e6,
    slot_time=usec(9.0),
    sifs=usec(16.0),
    cw_min=15,
    cw_max=1023,
    preamble_time=usec(36.0),
    basic_rate_bps=mbps(6.0),
    modes=(
        _mimo_mode("MCS0-40", mbps(15.0), 1, OFDM_BPSK_12, 5.0),
        _mimo_mode("MCS1-40", mbps(30.0), 1, OFDM_QPSK_12, 8.0),
        _mimo_mode("MCS2-40", mbps(45.0), 1, OFDM_QPSK_34, 10.0),
        _mimo_mode("MCS3-40", mbps(60.0), 1, OFDM_16QAM_12, 13.0),
        _mimo_mode("MCS4-40", mbps(90.0), 1, OFDM_16QAM_34, 17.0),
        _mimo_mode("MCS5-40", mbps(120.0), 1, OFDM_64QAM_23, 21.0),
        _mimo_mode("MCS6-40", mbps(135.0), 1, OFDM_64QAM_34, 23.0),
        _mimo_mode("MCS12-40", mbps(120.0), 2, OFDM_16QAM_12, 16.0),
        _mimo_mode("MCS15-40", mbps(150.0), 2, OFDM_64QAM_56, 27.0),
        _mimo_mode("MCS23-40", mbps(150.0), 3, OFDM_64QAM_56, 29.0),
        _mimo_mode("MCS31-40", mbps(150.0), 4, OFDM_64QAM_56, 31.0),
    ),
    nominal_range_m=250.0,
)

DOT11AC = PhyStandard(
    name="802.11ac",
    band_hz=5.0e9,
    channel_width_hz=80e6,
    slot_time=usec(9.0),
    sifs=usec(16.0),
    cw_min=15,
    cw_max=1023,
    preamble_time=usec(40.0),
    basic_rate_bps=mbps(6.0),
    modes=(
        _mimo_mode("VHT-MCS0", mbps(32.5), 1, OFDM_BPSK_12, 5.0),
        _mimo_mode("VHT-MCS2", mbps(97.5), 1, OFDM_QPSK_34, 10.0),
        _mimo_mode("VHT-MCS4", mbps(195.0), 1, OFDM_16QAM_34, 17.0),
        _mimo_mode("VHT-MCS7", mbps(292.5), 1, OFDM_64QAM_56, 27.0),
        _mimo_mode("VHT-MCS8", mbps(390.0), 1, OFDM_256QAM_34, 31.0),
        _mimo_mode("VHT-MCS9", mbps(433.3), 1, OFDM_256QAM_56, 33.0),
        _mimo_mode("VHT-MCS9x2", mbps(433.3), 2, OFDM_256QAM_56, 35.0),
        _mimo_mode("VHT-MCS9x3", mbps(433.3), 3, OFDM_256QAM_56, 37.0),
    ),
    nominal_range_m=250.0,
)

#: All members of the family, keyed by name.
STANDARDS: Dict[str, PhyStandard] = {
    standard.name: standard
    for standard in (DOT11_LEGACY, DOT11B, DOT11A, DOT11G, DOT11N, DOT11AC)
}


def get_standard(name: str) -> PhyStandard:
    """Look up a standard by name ("802.11b", "802.11g", ...)."""
    try:
        return STANDARDS[name]
    except KeyError:
        known = ", ".join(sorted(STANDARDS))
        raise ConfigurationError(f"unknown standard {name!r}; known: {known}")
