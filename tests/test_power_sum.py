"""mean_power_dbm's and span_power_dbm's exact power sums, bit for bit
against math.fsum.

``math.fsum`` rounds the exact sum of the powers once, to nearest and a tie
to even; it is the oracle here and nowhere in the library.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from innoise import model
from innoise.model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, mean_power_dbm, mw_to_dbm, span_power_dbm

LEVELS = st.floats(min_value=LEVEL_MIN_DBM, max_value=LEVEL_MAX_DBM)


def fsum_mean_power_dbm(levels: np.ndarray) -> float:
    """The mean power's dB value from the same powers, summed by math.fsum."""
    return mw_to_dbm(math.fsum(np.power(10.0, levels / 10.0).tolist()) / levels.size)


def assert_fsum_bits(levels: np.ndarray, order: np.ndarray, blocks=(1, 3)) -> None:
    """mean_power_dbm of ``levels``, at the default block size and each of
    ``blocks``, and of ``levels[order]``, has the reference's bits."""
    expected = fsum_mean_power_dbm(levels).hex()
    assert mean_power_dbm(levels).hex() == expected
    assert mean_power_dbm(levels[order]).hex() == expected
    for block in blocks:
        with mock.patch.object(model, "_POWER_BLOCK", block):
            assert mean_power_dbm(levels).hex() == expected, block


@given(st.lists(LEVELS, min_size=1, max_size=60), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_exact_sum_has_the_fsum_bits_over_the_level_range(levels, rng):
    order = list(range(len(levels)))
    rng.shuffle(order)
    assert_fsum_bits(np.array(levels), np.array(order, dtype=np.intp))


@given(
    LEVELS,
    st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, 10.0]),
    st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=60),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300)
def test_exact_sum_has_the_fsum_bits_for_close_levels(center, spread, offsets, rng):
    # powers within a few ulps to a few decades of each other: every bit of
    # the sum counts
    levels = np.clip(center + spread * np.array(offsets), LEVEL_MIN_DBM, LEVEL_MAX_DBM)
    order = np.arange(levels.size)
    rng.shuffle(order)
    assert_fsum_bits(levels, order)


@given(
    # one sample, a block and one over, several blocks
    st.sampled_from([1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7]),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from(["range", "wgn"]),
)
@settings(max_examples=12, deadline=None)
def test_exact_sum_has_the_fsum_bits_over_several_blocks(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "range":
        levels = rng.uniform(LEVEL_MIN_DBM, LEVEL_MAX_DBM, n)
    else:
        levels = rng.normal(rng.uniform(-150.0, 50.0), 3.0, n)
    # at 1 and 3 samples a block, a Python step per block takes seconds here
    assert_fsum_bits(levels, rng.permutation(n), blocks=(4099,))


@given(
    st.floats(min_value=0.0, max_value=3.0, exclude_max=True),
    st.data(),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200)
def test_exact_sum_rounds_a_half_unit_tie_as_fsum(level, data, rng):
    # one power b in [1, 2) mW, whose last set bit is 2**t, and m samples of
    # 0 dBm (exactly 1 mW), with m + b in [2**(t + 53), 2**(t + 54)): b's
    # last bit is half the last bit of the sum, so the exact sum falls
    # halfway between two doubles, and the tie goes to the even one
    b = float(np.power(10.0, level / 10.0))
    t = 1 - Fraction(b).denominator.bit_length()
    assume(t <= -48)  # at most 2**6 samples
    e = t + 53
    m = data.draw(st.integers(min_value=math.ceil(2**e - b), max_value=math.ceil(2**(e + 1) - b) - 1))
    levels = np.array([level, *[0.0] * m])
    exact = m + Fraction(b)
    half_unit = Fraction(2) ** t
    below, above = float(exact - half_unit), float(exact + half_unit)
    assert Fraction(below) + half_unit == exact == Fraction(above) - half_unit
    # mean power near 1 mW: the dB value shows the sum's last bit
    assume(mw_to_dbm(below / levels.size) != mw_to_dbm(above / levels.size))
    order = np.arange(levels.size)
    rng.shuffle(order)
    assert_fsum_bits(levels, order)


@given(
    st.lists(LEVELS, min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), max_size=8),
)
@settings(max_examples=300)
def test_span_amplitudes_have_the_fsum_bits_on_both_sides_of_the_block(levels, gaps):
    # spans of 1 to 12 samples, apart or adjacent; at 1 and 3 samples a
    # block each span of two or more, or of four or more, is mean_power_dbm's
    levels = np.array(levels)
    start, end, last = [], [], -1
    for gap, length in gaps:
        if last + gap + length >= levels.size:
            break
        start.append(last + gap + 1)
        last += gap + length
        end.append(last)
    start, end = np.array(start, np.int64), np.array(end, np.int64)
    expected = [fsum_mean_power_dbm(levels[s : e + 1]).hex() for s, e in zip(start, end)]
    for block in (1, 3, model._POWER_BLOCK):
        with mock.patch.object(model, "_POWER_BLOCK", block):
            assert [a.hex() for a in span_power_dbm(levels, start, end)] == expected, block
