"""Bitmask spectrum search and the integer gcd against their references.

`spectrum_rows` (and `find_spectra` through it) sweeps cliques of the
good-difference graph level by level, and `first_spectrum` walks them on
bitmasks, lowest candidate first, stopping at the first clique.
`poly_gcd` runs the primitive pseudo-remainder sequence over the
integers.  The references below are the code they replaced: the
`all()`-based clique extension with a final sort, and the Euclid over
`Fraction`s.  Every result must match them exactly.  The F_p screen
that `unit_circle_angles` runs before `poly_gcd` is checked against
`poly_gcd` on the same draws, and the gcd that `screened_gcd` reads off
F_p against the Euclid over `Fraction`s.
"""

import importlib
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import time_limit

from spectralconv.cyclotomic import (
    _GCD_PRIME,
    _gcd_mod_p,
    cyclotomic_orders,
    degree,
    poly_gcd,
    screened_gcd,
    trim,
    unit_circle_angles,
)
from spectralconv.hadamard import find_spectra, first_spectrum, good_differences, spectrum_rows

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


def assert_screen_agrees(f, g):
    """The F_p gcd degree of f and f* is 0 exactly when their integer gcd
    g is constant, and never below the degree of g."""
    screened = len(_gcd_mod_p(f, reverse(f))) - 1
    assert screened >= degree(g)
    assert (screened == 0) == (degree(g) == 0)


# ---------------------------------------------------------------------------
# spectrum search


@st.composite
def pairs(draw):
    """Signed scales 2-40 and 65-100 and 2-9 digits up to 3|N|: admissible
    pairs, inadmissible ones, and pairs with more digits than |N|.  Rows
    of the wider scales span more than 64 residues."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(65, 100)))
    scale = n * draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        # digits j*m + n*t (j < k) with k | n: m**(k-1) spectra, at most
        # 2**14 at the wider scales, where the reference is slow
        k = draw(st.sampled_from([k for k in range(2, 10) if n % k == 0
                                  and (n <= 40 or (n // k) ** (k - 1) <= 2 ** 14)] or [2]))
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
    n = abs(scale)
    reference = ref_find_spectra(scale, digits)
    rows = spectrum_rows(scale, digits, limit=n)
    assert rows.tolist() == [list(s) for s in reference]
    assert rows.shape == (len(reference), len(digits))
    assert rows.dtype == np.uint8  # the smallest unsigned dtype for residues below 100
    spectra = find_spectra(scale, digits, limit=n)
    assert spectra == reference
    assert all(type(x) is int for s in spectra for x in s)
    assert first_spectrum(scale, digits, limit=n) == (reference[0] if reference else None)


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
    got = poly_gcd(residual, reverse(residual))
    assert got == ref_poly_gcd(residual, reverse(residual))
    assert_screen_agrees(residual, got)


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
    assert_screen_agrees(f, got)


def test_lehmer_polynomial_is_its_own_reciprocal_factor():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    assert reverse(lehmer) == lehmer
    assert poly_gcd(lehmer, reverse(lehmer)) == lehmer
    # a nonreciprocal cofactor leaves the Lehmer factor as the gcd
    f = poly_mul(lehmer, [2, 1])
    assert poly_gcd(f, reverse(f)) == lehmer


def test_the_screen_never_hides_a_salem_factor():
    # Lehmer's polynomial has 8 roots on the unit circle, none a root of
    # unity; a nonreciprocal cofactor must not hide them
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    angles = unit_circle_angles(lehmer)
    assert len(angles) == 8
    assert unit_circle_angles(poly_mul(lehmer, [2, 1])) == angles


@pytest.fixture
def gcd_calls(monkeypatch):
    """The arguments of every `poly_gcd` call made by `unit_circle_angles`."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    # the package exports a function named cyclotomic, so import the module by path
    monkeypatch.setattr(importlib.import_module("spectralconv.cyclotomic"), "poly_gcd", spy)
    return calls


def test_a_trivial_reciprocal_part_is_decided_in_f_p(gcd_calls):
    rng = random.Random(120)
    digits = {0, 120} | set(rng.sample(range(1, 120), 4))
    _, residual = cyclotomic_orders(_digit_polynomial(digits))
    assert unit_circle_angles(residual) == ()
    assert gcd_calls == []


def test_an_unlucky_prime_falls_through_to_the_integer_gcd(gcd_calls):
    # mod p the root (p + 1)/2 is 1/2, so f and f* share both roots mod p
    # but none over Q
    p = _GCD_PRIME
    f = poly_mul([-2, 1], [-(p + 1) // 2, 1])
    assert len(_gcd_mod_p(f, reverse(f))) - 1 == 2
    assert unit_circle_angles(f) == ()
    assert len(gcd_calls) == 1
    assert degree(poly_gcd(f, reverse(f))) == 0


@pytest.mark.parametrize("f", [[1, 0, _GCD_PRIME], [_GCD_PRIME, 0, 1]])
def test_a_leading_coefficient_divisible_by_p_falls_through(gcd_calls, f):
    # mod p one of f, f* drops to a constant, so the screen reads degree 0
    # without a proof
    assert len(_gcd_mod_p(f, reverse(f))) - 1 == 0
    assert unit_circle_angles(f) == ()
    assert len(gcd_calls) == 1



def test_gcd_edge_cases_match_the_reference():
    for a, b in (([], []), ([], [0, 2]), ([6, 4], []), ([3], [0, 0, 5]),
                 ([-2, 0, -4], [-1, 0, -2]), ([0, 0, 6], [0, 3])):
        assert poly_gcd(a, b) == ref_poly_gcd(a, b)


@st.composite
def gcd_pairs(draw):
    """Two polynomials with a drawn common factor: small coefficients that
    lift from F_p at once, huge ones past p/2 that fall through to
    poly_gcd, and signs of both kinds."""
    big = draw(st.booleans())
    coeff = st.integers(-2 ** 80, 2 ** 80) if big else st.integers(-9, 9)
    nonzero_top = lambda cs: cs + [draw(coeff.filter(bool))]
    common = nonzero_top(draw(st.lists(coeff, max_size=4)))
    a = poly_mul(common, nonzero_top(draw(st.lists(coeff, max_size=12))))
    b = poly_mul(common, nonzero_top(draw(st.lists(coeff, max_size=12))))
    return a, b


@given(gcd_pairs())
@settings(max_examples=200, deadline=None)
@example(([-2, -(_GCD_PRIME + 1), 2], [2, 0, 2]))
@example((poly_mul([1, 1], [1, 2, 3]), poly_mul([1, 1], [3, 0, _GCD_PRIME])))
def test_the_gcd_read_from_f_p_matches_the_reference(ab):
    a, b = ab
    assert screened_gcd(a, b) == ref_poly_gcd(a, b)


def test_a_repeated_unit_circle_root_is_flagged():
    """(2 z^2 + z + 2)^2 has a double root at each angle t with cos(2 pi t)
    = -1/4; np.roots puts both copies about 2e-8 off the circle, so only
    the squarefree part's roots can be read as on it."""
    f = poly_mul([2, 1, 2], [2, 1, 2])
    angles = unit_circle_angles(f)
    assert angles == unit_circle_angles([2, 1, 2])
    assert len(angles) == 2 and abs(np.cos(2 * np.pi * angles[0]) + 0.25) < 1e-12
    assert unit_circle_angles(poly_mul(f, [2, 1])) == angles
