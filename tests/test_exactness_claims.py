"""The exactness arguments of the docstrings, checked with exact arithmetic.

``numtext._shortest`` spells floats, and ``records._plain_levels`` reads
them, with double arithmetic whose steps their docstrings argue are exact,
or land on the right side of every integer and half; ``model`` sums powers
exactly, and ``io`` bounds what a JSON number and a 2-decimal table cell
may be. Each argument ranges over a small finite set (decades, binades,
digit counts and the powers of ten that scale them), so each test here
checks it at every member of that set with ``fractions.Fraction``, where a
test against ``repr`` or ``float()`` on drawn values could miss the one
case an argument gets wrong.
"""

import decimal
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from innoise import io, model, numtext, records
from innoise.model import LEVEL_MAX_DBM, LEVEL_MIN_DBM, checked_sample_rate

TEN = Fraction(10)
# the decades _shortest spells in positional form, 1e-4 <= |x| < 1e16
DECADES = range(-4, 16)


def _below(x: float) -> float:
    """The double next to positive ``x`` towards 0."""
    return math.nextafter(x, 0.0)


def _decade(x: float) -> int:
    """floor(log10(x)) of a positive double, exactly."""
    d = math.floor(math.log10(x))
    while TEN**d > Fraction(x):
        d -= 1
    while TEN ** (d + 1) <= Fraction(x):
        d += 1
    return d


def _binade_ends() -> list[tuple[float, int]]:
    """(a, its decade) for both ends of every binade [2**e, 2**(e + 1))
    within every decade of [1e-4, 1e16), clipped to the decade."""
    ends = []
    for p in DECADES:
        first, last = float(f"1e{p}"), _below(float(f"1e{p + 1}"))
        for e in range(math.frexp(first)[1] - 1, math.frexp(last)[1]):
            ends += [(max(first, 2.0**e), p), (min(last, _below(2.0 ** (e + 1))), p)]
    return ends


class _Seen(Exception):
    """Raised in place of ``_scaled``, once the decades it was handed are kept."""


def _decades_seen(values: list[float], starts: np.ndarray) -> list[int]:
    """The decades e10 that ``_shortest`` hands ``_scaled`` for ``values``,
    with ``starts`` as its table of each decade's least double."""
    seen = []

    def keep(a, e10):
        seen.append(e10.tolist())
        raise _Seen

    with mock.patch.object(numtext, "_DECADE_STARTS", starts), mock.patch.object(
        numtext, "_scaled", keep
    ), pytest.raises(_Seen):
        numtext._shortest(np.array(values))
    return seen[0]


def test_each_decade_starts_at_the_least_double_not_below_its_power_of_ten():
    # fl(10**p) > 10**p for p = -4 .. -1 and 10**p is a double for p = 0 .. 16,
    # so fl(10**p) is the least double >= 10**p; and 10**p lies above the
    # midpoint below fl(10**p), so no smaller double has 10**p in its
    # rounding interval and the digits stay below 10**17
    starts = [float(f"1e{p}") for p in range(-4, 17)]
    assert numtext._DECADE_STARTS.tolist() == starts
    for p, start in zip(range(-4, 17), starts):
        exact, before = TEN**p, Fraction(_below(start))
        assert (Fraction(start) > exact) if p < 0 else (Fraction(start) == exact), p
        assert before < (before + Fraction(start)) / 2 < exact, p


def test_the_decade_from_the_exponent_is_exact_at_every_binade_edge():
    # the estimate floor((e - 1) log10 2) is one value per binade and the
    # table's step is monotone, so a decade right at both ends of every
    # binade and at both sides of every decade's start is right in between
    ends = _binade_ends()
    values = [a for a, _ in ends]
    values += [v for p in range(-3, 16) for v in (float(f"1e{p}"), _below(float(f"1e{p}")))]
    values += [1e-4, _below(1e16)]
    estimates = _decades_seen(values, np.full(21, np.inf))
    for a, estimate in zip(values, estimates):
        assert estimate in (_decade(a) - 1, _decade(a)), a
    assert _decades_seen(values, numtext._DECADE_STARTS) == list(map(_decade, values))


def test_scaled_products_are_exact_and_land_in_the_17_digit_range():
    ends = _binade_ends()
    a = np.array([a for a, _ in ends])
    e10 = np.array([p for _, p in ends], np.intp)
    k = 16 - e10
    assert k.min() == 1 and k.max() == 20
    a_hi, a_lo = numtext._split(a)
    p_hi, p_lo = numtext._POW10_HI[k], numtext._POW10_LO[k]
    big, err, _, _ = numtext._times_pow10(a, k)
    whole, frac, lo, hi = numtext._scaled(a, e10)
    for i, x in enumerate(a.tolist()):
        scaled = Fraction(x) * TEN ** int(k[i])
        assert Fraction(a_hi[i]) + Fraction(a_lo[i]) == Fraction(x), x
        assert Fraction(p_hi[i]) + Fraction(p_lo[i]) == TEN ** int(k[i]), x
        for u, v in ((a_hi, p_hi), (a_hi, p_lo), (a_lo, p_hi), (a_lo, p_lo)):
            product = Fraction(u[i]) * Fraction(v[i])
            assert product == 0 or 2**-66 <= abs(product) < 2**100, x
            assert Fraction(u[i] * v[i]) == product, x  # no rounding
        assert big[i] < 2**60 and abs(err[i]) <= 64, x
        assert Fraction(big[i]) + Fraction(err[i]) == scaled, x
        assert int(whole[i]) == math.floor(scaled) and 10**16 <= whole[i] < 10**17, x
        # X and the midpoints less floor(X) lie on the side of every integer
        # and half that their exact values do, or land on it
        down, up = (np.array([x, x]).view(np.int64) + [-1, 1]).view(np.float64).tolist()
        for got, exact in (
            (frac[i], scaled),
            (lo[i], (Fraction(x) + Fraction(down)) / 2 * TEN ** int(k[i])),
            (hi[i], (Fraction(x) + Fraction(up)) / 2 * TEN ** int(k[i])),
        ):
            halves = 2 * (exact - int(whole[i]))
            assert math.floor(halves) <= 2 * Fraction(got) <= math.ceil(halves), x


def _pieces() -> list[tuple[float, float, int]]:
    """(first, last, decade) of each binade of each decade of [1e-4, 1e16),
    clipped to the decade: within one, every double has the same gap to
    its neighbours but 2**e, whose gap below is half, and which is a first."""
    ends = _binade_ends()
    return [(a, b, p) for (a, p), (b, _) in zip(ends[::2], ends[1::2])]


def _neighbours(x: float) -> tuple[Fraction, Fraction]:
    """The doubles next to positive ``x`` below and above it, exactly."""
    return Fraction(_below(x)), Fraction(math.nextafter(x, math.inf))


def test_each_midpoint_lies_at_least_0_555_from_x_and_1_to_23_integers_between():
    # _shortest's first reason: half a gap is at least 2**-54 of a double,
    # and X is at least 10**16, so a scaled midpoint is at least 0.555 from
    # X; lo and hi are at least 1.11 and at most 23 apart. The gaps of each
    # piece are those of its two ends, so its ends cover all of it.
    widest = 0
    for first, last, p in _pieces():
        scale = TEN ** (16 - p)
        for x in (first, last):
            down, up = _neighbours(x)
            low, high = (Fraction(x) - down) / 2, (up - Fraction(x)) / 2
            assert min(low, high) >= Fraction(x) / 2**54, x
            assert min(low, high) * scale >= Fraction(555, 1000), x
            lo, hi = (Fraction(x) - low) * scale, (Fraction(x) + high) * scale
            assert 1 <= math.ceil(hi) - math.floor(lo) - 1 <= 23, x  # integers between
            widest = max(widest, (low + high) * scale)
    # an open interval as wide as the widest holds at most ceil(width) integers
    assert math.ceil(widest) <= 23


def test_a_scaled_midpoint_is_an_integer_only_from_2_to_the_52_and_never_chosen():
    # _shortest's second reason. A double x of a piece with gap g is a
    # multiple of g, so a midpoint is an odd multiple of g / 2 and, scaled,
    # of g 10**k / 2: the denominator of g 10**k / 2 is the midpoint's for
    # every x of the piece (an odd factor cancels no 2)
    e_max = 8  # |E| <= half the last bit of P < 10**17 < 2**57
    assert 10**17 < 2**57 and math.ulp(2.0**56) / 2 == e_max
    for first, last, p in _pieces():
        k = 16 - p
        gaps = Fraction(first) - _neighbours(first)[0], _neighbours(last)[1] - Fraction(last)
        for x, gap in zip((first, last), gaps):  # the gap below first and above last
            half = gap / 2 * TEN**k  # the midpoint's distance from X
            for mid in (Fraction(x) - gap / 2, Fraction(x) + gap / 2):
                assert (mid * TEN**k).denominator == half.denominator, x
            if half.denominator > 1:
                # at least 2**-47 from every integer, and the two roundings of
                # E + half and of that less floor(E), each below 32 in
                # magnitude, move it at most 2 * 2**-49
                assert half.denominator <= 2**47 and e_max + half + 1 < 32, x
                assert 2 * Fraction(math.ulp(31.0)) / 2 < Fraction(1, half.denominator), x
            else:
                # an integer only from 2**52 on, where X = 10 x and the
                # midpoints are 10 x -+ 5 or 10 x -+ 10, x even for the latter:
                # an odd multiple of 5 g, never of 100
                assert x >= 2.0**52 and k == 1 and gap in (1, 2) and half == 5 * gap, x
                assert all(odd * half % 100 for odd in range(1, 41, 2)), x


def test_a_plain_line_gives_m_below_10_to_the_18_and_k_at_most_17():
    # _plain_digits: at most 18 digits, one of them at least before the point
    lines = [(i, 18 - i) for i in range(1, 18)] + [(1, 1), (9, 9)]
    block = "".join("9" * i + "." + "9" * f + "\n" for i, f in lines).encode()
    m, k, neg = records._plain_digits(block)
    assert m.tolist() == [10 ** (i + f) - 1 for i, f in lines] and not neg.any()
    assert k.tolist() == [f for _, f in lines] and k.max() == 17
    assert m.max() < 10**18 < 2**63  # so the int64 view of m is m
    assert records._plain_digits(b"1" * 10 + b"." + b"1" * 9 + b"\n") is None  # 19 digits


def test_m_less_its_double_fits_an_int8():
    # |m - fl(m)| is at most half the last bit of fl(m): 64 for m in
    # [2**59, 10**18), less below; a tie there reaches 64
    assert 2**59 < 10**18 <= 2**60
    # half the last bit of the binade [2**b, 2**(b + 1)) is 2**(b - 53)
    assert max(2 ** (b - 53) for b in range(53, 64) if 2**b < 10**18) == 64
    tie = 2**59 + 64  # between 2**59 and 2**59 + 128: to the even 2**59
    assert tie < 10**18 and tie - int(float(tie)) == 64 <= np.iinfo(np.int8).max
    line = f"{tie // 10}.{tie % 10}\n".encode()  # 18 digits
    assert records._plain_levels(line).tolist() == [float(line)]


def _quotient(m: int, k: int) -> float:
    """The first quotient of a plain line's digits m and fraction digits k."""
    return float(m) / 10.0**k


def _lines_at_binade_ends() -> list[tuple[int, int]]:
    """(m, k) of the least and the greatest m, 1 <= m < 10**18, whose first
    quotient lies in each binade, for every k in 1 .. 17."""
    ends = []
    for k in range(1, 18):
        e = math.frexp(_quotient(1, k))[1] - 1
        while 2.0**e <= _quotient(10**18 - 1, k):
            m = max(1, math.floor(2.0**e * 10**k) - 3)
            while _quotient(m, k) < 2.0**e:
                m += 1
            ends.append((m, k))
            m = min(10**18 - 1, math.ceil(2.0 ** (e + 1) * 10**k) + 3)
            while _quotient(m, k) >= 2.0 ** (e + 1):
                m -= 1
            ends.append((m, k))
            e += 1
    return ends


def test_the_quotient_correction_sets_m_against_exact_midpoints():
    # _plain_levels: scaled by 10**k, less P = fl(q 10**k), the midpoints
    # around q are multiples of 2**(j + k - 2), 2**j being q's last bit,
    # below 2**51 times that, so _times_pow10 gives them exactly; so is
    # m - P, as fl(m) - P and m - fl(m)
    for m, k in _lines_at_binade_ends():
        q = _quotient(m, k)
        unit = Fraction(math.ulp(q)) * 2**k / 4  # 2**(j + k - 2)
        big, _, below, above = numtext._times_pow10(np.array([q]), np.array([k], np.intp))
        P = Fraction(big[0])
        assert big[0] == q * 10.0**k, (m, k)
        down, up = _neighbours(q)
        for got, mid in ((below[0], (Fraction(q) + down) / 2), (above[0], (Fraction(q) + up) / 2)):
            exact = mid * TEN**k - P
            assert (exact / unit).denominator == 1 and abs(exact) < 2**51 * unit, (m, k)
            assert Fraction(got) == exact, (m, k)
        near = float(m)
        d = near - big[0]
        d += float(m - int(near))
        assert Fraction(d) == m - P, (m, k)


def test_every_level_gives_a_normal_power_and_every_sum_stays_finite():
    # model: levels in [-3000, 2900] dBm are powers in [1e-300, 1e290] mW,
    # normal doubles, and 2**60 of the largest sum below 1.2e308 mW
    least, most = np.power(10.0, np.array([LEVEL_MIN_DBM, LEVEL_MAX_DBM]) / 10.0).tolist()
    assert LEVEL_MIN_DBM / 10.0 == -300 and LEVEL_MAX_DBM / 10.0 == 290
    for got, exact in ((least, TEN**-300), (most, TEN**290)):
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)), got
    assert least >= sys.float_info.min and TEN**-300 > Fraction(sys.float_info.min)
    assert 2**60 * Fraction(most) < Fraction(1.2e308) < Fraction(sys.float_info.max)
    # so the least frexp exponent of a power is above that of 2**-1074
    assert np.frexp(least)[1] > model._FREXP_MIN


def test_a_block_s_bucket_sums_stay_below_2_to_the_43():
    # a power's frexp fraction f in [0.5, 1) has 53 bits, so f 2**53 is an
    # integer, split as hi 2**26 + lo with hi in [2**26, 2**27) and lo in
    # [0, 2**26); a bucket of _POWER_BLOCK of them sums below 2**43 < 2**53
    for f in (0.5, 0.5 + 2.0**-27, 0.5 + 2.0**-28 - 2.0**-53, _below(1.0), 0.75):
        hi = math.floor(f * 2.0**27)
        lo = (f * 2.0**27 - hi) * 2.0**26
        assert Fraction(hi) * 2**26 + Fraction(lo) == Fraction(f) * 2**53, f
        assert 2**26 <= hi < 2**27 and lo == int(lo) and 0 <= lo < 2**26, f
    assert model._POWER_BLOCK * (2**27 - 1) < 2**43
    n = model._POWER_BLOCK
    worst = np.bincount(np.zeros(n, np.intp), np.full(n, 2.0**27 - 1))  # one bucket, all hi
    assert int(worst[0]) == n * (2**27 - 1)


def test_frexp_min_is_the_exponent_of_the_least_positive_double():
    least = math.ldexp(1.0, -1074)
    assert least == 5e-324 and math.frexp(least) == (0.5, model._FREXP_MIN)
    assert np.frexp(np.array([least]))[1].tolist() == [model._FREXP_MIN]


def test_float_bound_is_the_least_int_float_refuses():
    # 2**1024 - 2**970 is the midpoint between the largest double and 2**1024,
    # a tie float() rounds to the even 2**1024, which is past the largest double
    bound = io._FLOAT_BOUND
    assert Fraction(bound) == (Fraction(sys.float_info.max) + 2**1024) / 2
    for sign in (1, -1):
        assert float(sign * (bound - 1)) == sign * sys.float_info.max
        with pytest.raises(OverflowError):
            float(sign * bound)


def test_the_rate_floor_keeps_every_2_decimal_cell_finite_and_within_28_digits():
    # checked_sample_rate's floor: fl(1e-3) >= 1e-3, so n samples last at most
    # n 10**6 ms, and an array holds under 2**60 samples: a duration, a
    # separation, their means and deviations are below 2**60 10**6 (1 + 2**-40)
    # after rounding, under 10**26, so io._fmt2 keeps them in decimal's
    # default 28 digits; 10**26 would need 29
    floor = checked_sample_rate(1e-3)
    with pytest.raises(model.DomainError):
        checked_sample_rate(_below(1e-3))
    assert 1000 / Fraction(floor) <= 10**6
    bound = Fraction(2**60 * 10**6) * (1 + Fraction(1, 2**40))
    assert bound < 10**26 and bound < Fraction(sys.float_info.max)
    assert decimal.getcontext().prec == 28
    for value in (float(bound), -float(bound), LEVEL_MIN_DBM, LEVEL_MAX_DBM):
        text = io._fmt2(value)
        assert len(text.lstrip("-").replace(".", "")) <= 28, value
        assert abs(Fraction(text) - Fraction(repr(value))) <= Fraction(1, 200), value
    with pytest.raises(decimal.InvalidOperation):
        io._fmt2(1e26)
