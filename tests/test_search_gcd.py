"""Bitmask spectrum search and the integer gcd against their references.

`find_spectra` walks cliques of the good-difference graph on bitmasks,
lowest candidate first, and `first_spectrum` stops at the first clique.
`poly_gcd` runs the primitive pseudo-remainder sequence over the
integers.  The references below are the code they replaced: the
`all()`-based clique extension with a final sort, and the Euclid over
`Fraction`s.  Every result must match them exactly.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import time_limit

from spectralconv.cyclotomic import cyclotomic_orders, poly_gcd, trim
from spectralconv.hadamard import find_spectra, first_spectrum, good_differences

# ---------------------------------------------------------------------------
# the references


def ref_find_spectra(scale, digits):
    n = abs(scale)
    ds = tuple(sorted(digits))
    k = len(ds)
    if k > n:
        return ()
    good = good_differences(scale, ds)
    found = []

    def extend(clique, start):
        if len(clique) == k:
            found.append(tuple(clique))
            return
        for v in range(start, n):
            if all((v - u) % n in good for u in clique):
                clique.append(v)
                extend(clique, v + 1)
                clique.pop()

    extend([0], 1)
    return tuple(sorted(found))


def ref_poly_gcd(a, b):
    fa = [Fraction(c) for c in trim(a)]
    fb = [Fraction(c) for c in trim(b)]
    while fb:
        rem = list(fa)
        db = len(fb) - 1
        lead = fb[-1]
        while len(rem) - 1 >= db and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < db:
                break
            c = rem[-1] / lead
            for j in range(db + 1):
                rem[len(rem) - 1 - db + j] -= c * fb[j]
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        fa, fb = fb, rem
    if not fa:
        return []
    den = 1
    for c in fa:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in fa]
    cont = 0
    for c in ints:
        cont = gcd(cont, abs(c))
    ints = [c // (cont or 1) for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reverse(coeffs):
    return trim(list(reversed(trim(coeffs))))


# ---------------------------------------------------------------------------
# spectrum search


@st.composite
def pairs(draw):
    """Signed scales 2-40 and 2-9 digits up to 3|N|: admissible pairs,
    inadmissible ones, and pairs with more digits than |N|."""
    n = draw(st.integers(2, 40))
    scale = n * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        # digits j*m + n*t (j < k) with k | n: m**(k-1) spectra
        k = draw(st.sampled_from([k for k in range(2, 10) if n % k == 0] or [2]))
        digits = {j * (n // k) + n * draw(st.integers(0, 2)) for j in range(k)}
    else:
        size = draw(st.integers(2, min(9, 3 * n + 1)))
        digits = draw(st.sets(st.integers(0, 3 * n), min_size=size, max_size=size))
    return scale, tuple(sorted(digits))


@given(pairs())
@example((32, (0, 4, 8, 12, 16, 20, 24, 28)))
@example((8, (0, 2, 4, 6)))
@example((4, (0, 1, 2, 3, 4)))
@example((15, (0, 7)))
@settings(max_examples=300, deadline=None)
def test_bitmask_search_matches_the_reference(pair):
    scale, digits = pair
    reference = ref_find_spectra(scale, digits)
    assert find_spectra(scale, digits) == reference
    assert first_spectrum(scale, digits) == (reference[0] if reference else None)


@pytest.mark.parametrize("search", [find_spectra, first_spectrum])
@pytest.mark.parametrize("scale,digits,error", [
    (65, (0, 1), ValueError), (1, (0, 1), ValueError), (4, (0,), ValueError),
    (4, (0, 0), ValueError), (4.0, (0, 2), TypeError)])
def test_both_searches_keep_the_input_checks(search, scale, digits, error):
    with pytest.raises(error):
        search(scale, digits)


# ---------------------------------------------------------------------------
# the reciprocal-factor gcd


def _digit_polynomial(digits):
    coeffs = [0] * (max(digits) + 1)
    for d in digits:
        coeffs[d] = 1
    return coeffs


@given(st.integers(20, 120), st.integers(0, 2**32), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_residual_gcd_matches_the_reference(span, seed, count):
    rng = random.Random(seed)
    digits = {0, span} | set(rng.sample(range(1, span), count))
    _, residual = cyclotomic_orders(_digit_polynomial(digits))
    assert poly_gcd(residual, reverse(residual)) == ref_poly_gcd(residual, reverse(residual))


def test_span_120_residual_gcd_keeps_its_coefficients_small():
    # without the content division the remainder coefficients grow
    # exponentially along the sequence and each gcd takes minutes
    rng = random.Random(120)
    for _ in range(6):
        digits = {0, 120} | set(rng.sample(range(1, 120), 4))
        _, residual = cyclotomic_orders(_digit_polynomial(digits))
        with time_limit(5):
            got = poly_gcd(residual, reverse(residual))
        assert got == ref_poly_gcd(residual, reverse(residual))


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(trim).filter(bool)


@given(small_polys, small_polys)
@settings(max_examples=300, deadline=None)
def test_reciprocal_factor_gcd_matches_the_reference(a, b):
    f = poly_mul(poly_mul(a, reverse(a)), b)
    got = poly_gcd(f, reverse(f))
    assert got == ref_poly_gcd(f, reverse(f))
    assert got[-1] > 0


def test_lehmer_polynomial_is_its_own_reciprocal_factor():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    assert reverse(lehmer) == lehmer
    assert poly_gcd(lehmer, reverse(lehmer)) == lehmer
    # a nonreciprocal cofactor leaves the Lehmer factor as the gcd
    f = poly_mul(lehmer, [2, 1])
    assert poly_gcd(f, reverse(f)) == lehmer


def test_gcd_edge_cases_match_the_reference():
    for a, b in (([], []), ([], [0, 2]), ([6, 4], []), ([3], [0, 0, 5]),
                 ([-2, 0, -4], [-1, 0, -2]), ([0, 0, 6], [0, 3])):
        assert poly_gcd(a, b) == ref_poly_gcd(a, b)
