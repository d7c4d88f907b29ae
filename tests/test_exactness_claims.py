"""The float writer's exactness arguments, checked with exact arithmetic.

``numtext._shortest`` spells floats with double arithmetic whose steps its
docstrings argue are exact, or land on the right side of every integer and
half. Each argument ranges over a small finite set (decades, binades and
the powers of ten that scale them), so each test here checks it at every
member of that set with ``fractions.Fraction``, where a test against
``repr`` on drawn values could miss the one case an argument gets wrong.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from innoise import numtext

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
