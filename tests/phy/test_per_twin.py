"""The compiled reception tail's PER against ``BerErrorModel``'s, bit for bit.

For an exact ``BerErrorModel`` and an exact ``Modulation`` whose fields
are floats, ``_ckernel._reception_complete`` computes
``packet_error_rate`` (and ``Modulation.ber``) itself, then draws once;
anything else, and every input the reference raises on, is handed to
the model's ``packet_error_rate``.  Hypothesis draws the SNR (finite,
±inf, NaN, and SNRs so high that ``10.0 ** x`` overflows), the frame
size (≤ 0, small, 6 400, past 2**53, not an int), a catalogue
modulation or one of drawn float fields, and runs one reception tail per
kernel side with an RNG stub that returns the reference PER, then
``math.nextafter(per, -inf)``, then 1.0: survival must follow the
reference's ``>=`` on each, so a PER one ulp off, or NaN on one side
only, fails.  Which inputs are handed
off is asserted exactly, so every catalogue modulation is held to the
compiled arithmetic.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Position, Simulator
from repro.core.engine import ckernel_available
from repro.phy import modulation as catalogue
from repro.phy.channel import Medium, Transmission
from repro.phy.error_models import BerErrorModel
from repro.phy.interference import SinrTracker
from repro.phy.modulation import Modulation
from repro.phy.propagation import FreeSpace
from repro.phy.standards import DOT11B
from repro.phy.transceiver import Radio, RadioState

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")

CATALOGUE = [value for value in vars(catalogue).values()
             if type(value) is Modulation]
FIELDS = ("processing_gain_db", "coding_gain_db", "bits_per_symbol",
          "code_rate")


class Subclassed(Modulation):
    """Not the exact class: its PER is always the method's."""


class Draws:
    """An RNG stub: ``random()`` returns one value and counts the calls."""

    def __init__(self, value):
        self.value, self.taken = value, 0

    def random(self):
        self.taken += 1
        return self.value


def _receiver():
    sim = Simulator(seed=1, kernel="c")
    radio = Radio("rx", Medium(sim, FreeSpace(2.4e9)), DOT11B,
                  Position(0.0, 0.0, 0.0))
    model = radio.error_model
    assert type(model) is BerErrorModel
    handed_off = []

    def packet_error_rate(*args):
        # An instance attribute: the model stays exactly BerErrorModel,
        # and the tail's hand-off looks the method up on the instance.
        handed_off.append(args)
        return BerErrorModel.packet_error_rate(model, *args)

    model.packet_error_rate = packet_error_rate
    return radio, handed_off


def _tail(tail, radio, transmission, signal, noise, draw):
    """Lock ``transmission`` with a tracker of ``signal`` over ``noise``
    and no interference, run ``tail(radio)``; return what it decided."""
    delivered = []
    radio.on_rx_end = lambda payload, ok, snr, mode: delivered.append(
        (ok, repr(snr)))
    tracker = radio._tracker
    tracker.signal_watts, tracker.noise_watts = signal, noise
    tracker._start = tracker._last_time = radio._sim._now
    tracker._current_interference = tracker._energy = 0.0
    radio._locked, radio._locked_tracker = transmission, tracker
    radio._state = RadioState.RX
    radio._rng = rng = Draws(draw)
    try:
        tail(radio)
    except Exception as exc:                    # noqa: BLE001 - compared
        return ("raised", type(exc), str(exc)), rng.taken
    return ("delivered", delivered), rng.taken


#: SNRs: dB over a unit noise floor, or the tracker states of +inf
#: (no noise), -inf (no signal) and NaN.
SNRS = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(min_value=-3000.0, max_value=3080.0),
    st.floats(min_value=3060.0, max_value=3080.0),   # 10 ** x overflows
    st.sampled_from(["inf", "-inf", "nan", 0.0, -0.0]))
SIZES = st.one_of(
    st.sampled_from([6400, 1, 0, -8, 2 ** 53, 2 ** 53 + 1, 2 ** 64,
                     -(2 ** 64), 6400.0, True]),
    st.integers(min_value=-100, max_value=12000))
#: Fields of a drawn modulation: mostly a plausible curve (both gains
#: at once, which no catalogue entry has), sometimes any float at all.
GAIN = st.one_of(st.floats(-20.0, 20.0), st.floats())
DRAWN = st.builds(
    Modulation, st.just("drawn"),
    bits_per_symbol=st.one_of(st.sampled_from([1.0, 2.0, 4.0, 6.0, 8.0]),
                              st.floats(0.5, 12.0), st.floats()),
    processing_gain_db=GAIN, coding_gain_db=GAIN,
    code_rate=st.one_of(st.floats(0.1, 1.0), st.floats()))
MODULATIONS = st.one_of(
    st.sampled_from(CATALOGUE), DRAWN,
    st.sampled_from([Subclassed("sub", 4.0, 1.0, 2.0, 0.5),
                     Modulation("int bits", 2, coding_gain_db=3.0)]))


def _tracker_fields(snr):
    if snr == "inf":
        return 1.0, 0.0
    if snr == "-inf":
        return 0.0, 1.0
    if snr == "nan":
        return math.nan, 1.0
    return 10.0 ** (snr / 10.0), 1.0


@settings(max_examples=400, deadline=None)
@given(snr=SNRS, size_bits=SIZES, modulation=MODULATIONS)
@example(snr=3079.0, size_bits=6400, modulation=catalogue.DBPSK_DSSS)
@example(snr="nan", size_bits=6400, modulation=catalogue.OFDM_16QAM_12)
@example(snr=20.0, size_bits=6400,
         modulation=Modulation("wide", 1100.0, code_rate=0.5))
@example(snr=20.0, size_bits=6400, modulation=Modulation("none", 0.0))
def test_the_compiled_per_is_the_reference_s_to_the_bit(snr, size_bits,
                                                        modulation):
    from repro.core import _ckernel

    radio, handed_off = _receiver()
    signal, noise = _tracker_fields(snr)
    mode = dataclasses.replace(DOT11B.modes[0], modulation=modulation)
    transmission = Transmission(radio, "frame", size_bits, mode, 1e-3, 0.0,
                                2e-4)
    tracker = SinrTracker(signal, noise, 0.0)
    snr_db = tracker.sinr_db(0.0)
    try:
        per = BerErrorModel().packet_error_rate(snr_db, size_bits,
                                                modulation)
    except (OverflowError, ValueError) as exc:
        per, raised = 0.5, exc
    else:
        raised = None
    exact = type(modulation) is Modulation and all(
        type(getattr(modulation, name)) is float for name in FIELDS)
    handed = type(size_bits) is not int or (size_bits > 0 and (
        size_bits > 2 ** 53 or not exact or raised is not None))
    # 1.0 survives any PER but NaN: a NaN on one side only shows there.
    for draw in (per, math.nextafter(per, -math.inf), 1.0):
        reference = _tail(Radio._reception_complete, radio, transmission,
                          signal, noise, draw)
        del handed_off[:]
        compiled = _tail(_ckernel._reception_complete, radio, transmission,
                         signal, noise, draw)
        assert compiled == reference
        if raised is not None:
            assert compiled == (("raised", type(raised), str(raised)), 0)
        else:
            assert compiled == (("delivered", [(draw >= per,
                                                repr(snr_db))]), 1)
        assert bool(handed_off) == handed, (handed_off, handed)


@pytest.mark.parametrize("modulation", CATALOGUE, ids=lambda m: m.name)
def test_every_catalogue_modulation_is_computed_in_c(modulation):
    """Across its SNR ladder, at 6 400 bits, never handed off — and the
    ladder does cross from lost to delivered."""
    from repro.core import _ckernel

    radio, handed_off = _receiver()
    mode = dataclasses.replace(DOT11B.modes[0], modulation=modulation)
    transmission = Transmission(radio, "frame", 6400, mode, 1e-3, 0.0, 2e-4)
    pers = []
    for snr in range(-30, 41, 2):
        signal = 10.0 ** (snr / 10.0)
        per = BerErrorModel().packet_error_rate(
            SinrTracker(signal, 1.0, 0.0).sinr_db(0.0), 6400, modulation)
        outcome = _tail(_ckernel._reception_complete, radio, transmission,
                        signal, 1.0, per)
        assert outcome[1] == 1 and outcome[0][1][0][0] is True
        pers.append(per)
    assert not handed_off
    assert pers[0] > 0.99 and pers[-1] < 1e-6
