"""The compiled table sum against the interpreter's own ``sum()``.

Every compiled energy edge sums a radio's arrivals table with one C
function, ``table_sum`` in ``repro.core._ckernel``: a left fold of the
dict's values in C doubles — *plain*, as ``sum()`` adds floats through
CPython 3.11, or *compensated*, as it does from 3.12 on — and
``builtins.sum`` itself wherever a fold is not the reference (an empty
table, anything but exact floats, an interpreter whose ``sum()`` is
neither).  Which fold is not configured: the module asks ``sum()`` once,
when it loads, and says what it heard in ``_ckernel.table_fold``.

The claim is bit-identity, so everything here compares the 8 bytes of a
double (-0.0 and the NaN that ``inf - inf`` makes count; only where a NaN
went *in* is "a NaN" all that is asked of what comes out — which of two
NaNs an addition returns is its compiler's choice of operand order, for
``sum()`` as much as for the fold):

* the selected fold is ``sum(d.values())`` on tables of arrival-like
  powers, huge cancellations, signed zeros, subnormals, infinities and
  NaN, in dicts that first suffered insert / delete churn (tombstones,
  a resize) — and on this interpreter a fold *is* selected;
* the plain fold is ``functools.reduce(operator.add, values, 0.0)`` and
  the compensated fold a transcription of CPython 3.12's algorithm, on
  whichever interpreter runs this (so a 3.11 box exercises the fold a
  3.12 box selects, and the other way round), and ``sum()`` itself on
  the interpreter that has it;
* what no fold answers reaches ``builtins.sum``: the result or the
  exception is the reference's own and the table is untouched;
* a summation that agrees with neither fold selects ``"builtin"``, and
  the edge and access parity suites pass in that state.

Skipped loudly without the extension (see ``conftest``); CI's
compiled-kernel lane runs the file under ``-X dev``.
"""

import functools
import math
import operator
import os
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import Simulator
from repro.core.engine import ckernel_available

pytestmark = pytest.mark.skipif(
    not ckernel_available(),
    reason="compiled kernel not built (run: python tools/build_kernel.py)")


@pytest.fixture(scope="module")
def ext():
    return Simulator(kernel="c")._ext


def bits(value):
    assert type(value) is float, value
    return struct.pack("<d", value)


def same(got, expected, values):
    """Bit for bit; a NaN for a NaN where a NaN was among the values."""
    if math.isnan(expected) and any(map(math.isnan, values)):
        return type(got) is float and math.isnan(got)
    return bits(got) == bits(expected)


def neumaier(values):
    """``builtin_sum``'s float path in CPython >= 3.12, transcribed."""
    values = iter(values)
    total = 0.0 + next(values)          # the first value enters uncompensated
    error = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            error += (total - t) + x
        else:
            error += (x - t) + total
        total = t
    if error and math.isfinite(error):  # never turn an overflowed inf to NaN
        total += error
    return total


def plain(values):
    return functools.reduce(operator.add, values, 0.0)


#: What a radio's table holds, and what would tell two summations apart.
VALUES = st.lists(st.one_of(
    st.floats(min_value=1e-15, max_value=1e-3),
    st.sampled_from([1.0, -1.0, 1e100, -1e100, 1e308, -1e308, 0.1, 2.0 ** -53,
                     0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -1.5e-310, math.inf, -math.inf, math.nan, -math.nan]),
    st.floats()), min_size=1, max_size=40)
#: Keys inserted (True) and deleted (False) around and between the values.
CHURN = st.lists(st.tuples(st.integers(0, 70), st.booleans()), max_size=120)


def churned_table(values, churn):
    """``values`` in insertion order in a dict whose storage has seen
    better days: other keys came and went before, between and after
    (tombstones), some of them enough to resize it."""
    table = {}
    pending = list(enumerate(values))
    for step, (key, insert) in enumerate(churn):
        if insert:
            table["churn", key] = float(key)
        else:
            table.pop(("churn", key), None)
        if pending and step % 3 == 0:
            index, value = pending.pop(0)
            table["value", index] = value
    for index, value in pending:
        table["value", index] = value
    for key in [key for key in table if key[0] == "churn"]:
        del table[key]
    assert list(map(bits, table.values())) == list(map(bits, values))
    return table


@settings(max_examples=300, deadline=None)
@given(values=VALUES, churn=CHURN)
def test_the_selected_fold_is_sum_bit_for_bit(ext, values, churn):
    table = churned_table(values, churn)
    assert ext.table_fold in ("plain", "compensated")
    got = ext.table_sum(table, ext.table_fold == "compensated")
    assert same(got, sum(table.values()), values)


@settings(max_examples=300, deadline=None)
@given(values=VALUES, churn=CHURN)
def test_each_fold_is_its_algorithm_on_any_interpreter(ext, values, churn):
    table = churned_table(values, churn)
    assert same(ext.table_sum(table, False), plain(values), values)
    assert same(ext.table_sum(table, True), neumaier(values), values)
    newer = sys.version_info >= (3, 12)
    assert same(ext.table_sum(table, newer), sum(values), values)


@pytest.mark.parametrize("values, plainly, compensated", [
    ([1.0, 1e100, 1.0, -1e100], 0.0, 2.0),
    ([0.1] * 10, 0.9999999999999999, 1.0),
    ([1.0, 2.0 ** -53, -1.0], 0.0, 2.0 ** -53),
    ([-0.0], 0.0, 0.0),                     # it enters as 0.0 + -0.0
    ([1e308, 1e308, -1e308], math.inf, math.inf),   # and never NaN
    ([5e-324, -1e-323, 3e-308, -2.5e-308], 5e-309, 5e-309),
])
def test_the_vectors_that_tell_the_folds_apart(ext, values, plainly,
                                               compensated):
    table = dict(enumerate(values))
    assert bits(ext.table_sum(table, False)) == bits(plainly)
    assert bits(ext.table_sum(table, True)) == bits(compensated)
    for fold in (False, True):
        assert bits(ext.table_sum({0: math.inf, 1: -math.inf}, fold)) == \
            bits(math.inf + -math.inf)      # the NaN sum() makes, sign and all


def test_this_interpreter_selects_a_fold(ext):
    """3.11 adds plainly, 3.12 and later compensate; an interpreter that
    does neither is a red test here, not a silent slow path."""
    expected = "compensated" if sys.version_info >= (3, 12) else "plain"
    assert ext.table_fold == expected
    assert ext.select_fold(sum) == expected and ext.table_fold == expected


# --- what no fold answers ------------------------------------------------------

class Watts(float):
    """A float subclass: not an exact float, so not the fold's."""


class Deaf:
    def __radd__(self, other):
        raise ArithmeticError("no sum")


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("values", [
    [], [3], [1e-9, 2, 2.5e-10], [Fraction(1, 3), 0.25], [True, 0.5],
    [Watts(1e-9), 2e-9], [1e-9, Watts(-0.0)], [1e-9, Deaf(), 2e-9],
    [1e-9, "loud"]], ids=[
        "empty", "an int", "an int among floats", "a Fraction", "a bool",
        "a float subclass first", "a float subclass later",
        "a value whose __radd__ raises", "a str"])
def test_anything_else_is_the_reference_s_own_call(ext, fold, values):
    table = dict(enumerate(values))
    before = list(table.items())
    try:
        expected = sum(table.values())
    except (ArithmeticError, TypeError) as exc:
        with pytest.raises(type(exc)) as caught:
            ext.table_sum(table, fold)
        assert str(caught.value) == str(exc)
    else:
        got = ext.table_sum(table, fold)
        assert type(got) is type(expected)
        assert (bits(got) == bits(expected)) if type(got) is float \
            else got == expected
    after = list(table.items())
    assert len(after) == len(before) and all(
        a_key is b_key and a_value is b_value
        for (a_key, a_value), (b_key, b_value) in zip(after, before))


def test_the_export_takes_a_dict_and_a_flag(ext):
    with pytest.raises(TypeError):
        ext.table_sum([1.0, 2.0], False)
    with pytest.raises(TypeError):
        ext.table_sum({0: 1.0})


# --- the selection itself ------------------------------------------------------

@pytest.fixture
def reselect(ext):
    """Hands ``select_fold`` summations; puts ``sum`` back afterwards."""
    yield ext.select_fold
    ext.select_fold(sum)


def test_selection_is_asked_of_the_summation_not_configured(ext, reselect):
    assert reselect(plain) == "plain" and ext.table_fold == "plain"
    assert reselect(neumaier) == "compensated"
    assert ext.table_fold == "compensated"
    # Exact summation agrees with neither fold (and raises where they
    # answer NaN or inf); so does anything that is no summation at all.
    assert reselect(math.fsum) == "builtin" and ext.table_fold == "builtin"
    assert reselect(lambda values: 1.0) == "builtin"
    assert reselect(lambda values: "much") == "builtin"
    assert reselect(lambda values: plain(values) or 0.0) == "plain"
    # Only -0.0's first step apart from the plain fold: still not it.
    assert reselect(lambda values: functools.reduce(operator.add, values)) \
        == "builtin"


def test_what_selection_cannot_swallow_leaves_the_choice_alone(ext, reselect):
    def interrupted(values):
        raise KeyboardInterrupt

    chosen = ext.table_fold
    with pytest.raises(KeyboardInterrupt):
        reselect(interrupted)
    assert ext.table_fold == chosen


def test_the_parity_suites_pass_with_no_fold_selected():
    """An interpreter whose ``sum()`` is neither fold costs speed, never
    bits: with ``"builtin"`` forced, every compiled table sum is the
    ``values()`` + ``builtins.sum`` call it was before, and the edge,
    tail and access suites hold as they are."""
    script = (
        "import math, sys, pytest\n"
        "from repro.core import Simulator\n"
        "ext = Simulator(kernel='c')._ext\n"
        "assert ext.select_fold(math.fsum) == 'builtin'\n"
        "code = pytest.main(['-q', '-x', '-p', 'no:cacheprovider',\n"
        "                    'tests/phy/test_edge_parity.py',\n"
        "                    'tests/mac/test_access_parity.py'])\n"
        "assert ext.table_fold == 'builtin', ext.table_fold\n"
        "sys.exit(code)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=os.path.dirname(src),
        timeout=600, env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert done.returncode == 0, done.stdout[-4000:]
