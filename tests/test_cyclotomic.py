"""Exact integer polynomial arithmetic underneath everything else."""

import importlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralconv.cyclotomic import (
    _may_vanish,
    _order_root,
    cyclotomic,
    cyclotomic_orders,
    degree,
    divisors,
    euler_phi,
    exponent_sum_vanishes,
    poly_divmod,
    poly_gcd,
    trim,
    unit_circle_angles,
)


def poly_mul(a, b):
    """Product of two integer polynomials, lowest degree first, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return trim(out)


def test_first_few_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 16, 20, 24, 30])
def test_product_over_divisors_recovers_power_minus_one(n):
    prod = [1]
    for d in divisors(n):
        prod = poly_mul(prod, list(cyclotomic(d)))
    expected = [0] * (n + 1)
    expected[0] = -1
    expected[n] = 1
    assert trim(prod) == expected


def test_degree_matches_totient():
    for n in range(1, 40):
        assert degree(list(cyclotomic(n))) == euler_phi(n)


def test_totient_divisor_sum():
    # sum of phi(d) over divisors d of n equals n
    for n in range(1, 200):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_divisors_brute_force_agreement():
    for n in range(1, 120):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@given(st.integers(2, 24), st.data())
@settings(max_examples=80, deadline=None)
def test_exponent_sum_vanishing_matches_numeric(n, data):
    import cmath

    size = data.draw(st.integers(1, min(6, n)))
    exps = data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                              max_size=size))
    total = sum(cmath.exp(2j * cmath.pi * e / n) for e in exps)
    if exponent_sum_vanishes(n, exps):
        assert abs(total) < 1e-9
    else:
        assert abs(total) > 1e-9


def test_exponent_sum_vanishes_known_cases():
    assert exponent_sum_vanishes(4, [0, 2])
    assert exponent_sum_vanishes(6, [0, 2, 4])
    assert exponent_sum_vanishes(12, [0, 2, 6, 8])
    assert not exponent_sum_vanishes(3, [0, 1])
    assert not exponent_sum_vanishes(5, [0, 1, 2])


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_division_inverts_multiplication(quot, den_body, rem):
    den = den_body + [1]  # monic so integer division is exact
    if degree(trim(rem)) >= degree(den):
        return
    num = _poly_add(poly_mul(quot, den), rem)
    qq, rr = poly_divmod(num, den)
    assert trim(_poly_add(poly_mul(qq, den), rr)) == trim(num)
    assert degree(trim(rr)) < degree(den)


def test_order_extraction_on_composite_product():
    # 1 + z + z^2 + z^3 factors as the order-2 and order-4 polynomials
    orders, residual = cyclotomic_orders([1, 1, 1, 1])
    assert sorted(orders) == [2, 4]
    assert degree(residual) == 0


def test_order_extraction_leaves_off_circle_factor():
    # (z - 2) * (z^2 + 1): the linear factor has no unit-circle root
    p = poly_mul([-2, 1], [1, 0, 1])
    orders, residual = cyclotomic_orders(p)
    assert orders == [4]
    assert trim(residual) == [-2, 1]
    assert unit_circle_angles(residual) == ()


def test_non_root_of_unity_circle_points_are_flagged():
    """8z^4 + 8z^3 + 17z^2 + 8z + 8 has four unimodular roots.

    Writing w = z + 1/z turns it into 8w^2 + 8w + 1, whose roots
    (-1 +- sqrt(1/2))/2 lie in (-2, 2) but are not algebraic integers,
    so the roots of the quartic are unimodular without being roots of
    unity.  No cyclotomic factor may be extracted.
    """
    p = [8, 8, 17, 8, 8]
    orders, residual = cyclotomic_orders(p)
    assert orders == []
    assert trim(residual) == p
    angles = unit_circle_angles(p)
    assert len(angles) == 4
    # conjugate symmetry: angles pair up as a and 1 - a
    for a, b in zip(angles, reversed(angles)):
        assert abs((a + b) - 1.0) < 1e-9


def _divides_exactly(num, den):
    num = [Fraction(x) for x in num]
    den = [Fraction(x) for x in trim(den)]
    while len(num) >= len(den) and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, dv in enumerate(den):
            num[shift + i] -= factor * dv
        num.pop()
    return not any(num)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.lists(st.integers(-2, 2), min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_gcd_divides_both_inputs(a, b, c):
    if degree(trim(a)) < 0 or degree(trim(b)) < 0 or degree(trim(c)) < 1:
        return
    left = poly_mul(a, c)
    right = poly_mul(b, c)
    g = poly_gcd(left, right)
    assert degree(g) >= degree(trim(c))
    assert _divides_exactly(left, g)
    assert _divides_exactly(right, g)


def exact_quotient(num, den):
    """num / den for a monic den by integer long division; None when den
    does not divide num."""
    num, den = trim(num), trim(den)
    d = len(den) - 1
    if len(num) - 1 < d:
        return None
    quot = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        quot[i - d] = c
        for j, dj in enumerate(den):
            num[i - d + j] -= c * dj
    return None if any(num) else trim(quot)


def ref_cyclotomic_orders(coeffs):
    """cyclotomic_orders without any prefilter: exact division by every
    Phi_n with phi(n) <= deg, scanning n up to 2 deg^2 because
    phi(n) >= sqrt(n / 2)."""
    residual = trim(coeffs)
    while residual[0] == 0:
        residual = residual[1:]
    d = degree(residual)
    orders = []
    for n in range(1, 2 * d * d + 1):
        if euler_phi(n) > d:
            continue
        quot = exact_quotient(residual, cyclotomic(n))
        if quot is None:
            continue
        orders.append(n)
        while quot is not None:
            residual, quot = quot, exact_quotient(quot, cyclotomic(n))
    return orders, residual


BIG = 2 ** 70

coefficients = st.one_of(st.integers(-5, 5), st.integers(-BIG, BIG),
                         st.integers(2 ** 63 - 3, 2 ** 63 + 3).map(lambda c: c if c % 2 else -c))


@given(st.lists(st.tuples(st.integers(1, 60), st.integers(1, 3)), max_size=4),
       st.lists(coefficients, min_size=1, max_size=8),
       st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_orders_match_exact_division_by_every_candidate(factors, cofactor, shift):
    """Products of cyclotomic factors with multiplicity, times a random
    cofactor with negative and beyond-int64 coefficients and a power of x."""
    if not trim(cofactor):
        cofactor = [1]
    poly = [0] * shift + trim(cofactor)
    for n, mult in factors:
        if degree(poly) + mult * euler_phi(n) > 48:
            continue
        for _ in range(mult):
            poly = poly_mul(poly, list(cyclotomic(n)))
    assert cyclotomic_orders(poly) == ref_cyclotomic_orders(poly)


def test_coefficients_past_int64_are_reduced_exactly():
    a, b = 2 ** 70 + 1, 3  # (1 + z)(a + b z^2)
    assert cyclotomic_orders(poly_mul([1, 1], [a, 0, b])) == ([2], [a, 0, b])
    assert cyclotomic_orders(poly_mul([1, 1, 1], [-a, 0, 0, a + 1])) == ([3], [-a, 0, 0, a + 1])


def test_multiplicity_strip_skips_the_division_that_would_fail(monkeypatch):
    """Phi_3^2 * Phi_5 * (x + 2): two divisions by Phi_3 and one by Phi_5.
    The quotient left after each strip is nonzero at the order's F_p root,
    which proves the next division would leave a remainder."""
    phi3, phi5 = list(cyclotomic(3)), list(cyclotomic(5))  # built before counting
    poly = poly_mul(poly_mul(poly_mul(phi3, phi3), phi5), [2, 1])
    divisions = []

    def counting(num, den):
        divisions.append(len(den) - 1)
        return poly_divmod(num, den)

    # the package exports a function named cyclotomic, so import the module by path
    monkeypatch.setattr(importlib.import_module("spectralconv.cyclotomic"), "poly_divmod", counting)
    assert cyclotomic_orders(poly) == ([3, 5], [2, 1])
    assert divisions == [2, 2, 4]


@st.composite
def exponent_sums(draw):
    """A random exponent list mod n, or a union of cosets of subgroups of
    Z/n, whose root-of-unity sum vanishes."""
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        return n, draw(st.lists(st.integers(-3 * n, 3 * n), max_size=12))
    exps = []
    for _ in range(draw(st.integers(1, 3))):
        step = n // draw(st.sampled_from([d for d in divisors(n) if d > 1] or [1]))
        start = draw(st.integers(-n, n))
        exps += [start + k * step for k in range(n // step)]
    return n, exps


@given(exponent_sums())
@settings(max_examples=150, deadline=None)
def test_exponent_sum_vanishing_matches_exact_division(case):
    n, exps = case
    folded = [0] * n
    for e in exps:
        folded[e % n] += 1
    expected = not trim(folded) or exact_quotient(folded, cyclotomic(n)) is not None
    assert exponent_sum_vanishes(n, exps) == expected
    assert exponent_sum_vanishes(-n, exps) == expected


@given(exponent_sums(), st.one_of(st.integers(1, 60), st.integers(2 ** 31, 2 ** 64)))
@settings(max_examples=150, deadline=None)
def test_exponent_sum_vanishing_is_invariant_under_scaling(case, m):
    """zeta_(n m)^(e m) = zeta_n^e, so scaling the order and every exponent
    by m keeps the verdict; orders past 2^31 have no F_p screen and go
    through the gcd, rotation and degree reductions alone."""
    n, exps = case
    assert exponent_sum_vanishes(n * m, [e * m for e in exps]) == exponent_sum_vanishes(n, exps)


def test_prefilter_pairs_have_exact_order():
    """Every cached (p, omega) for n <= 5000: p prime by trial division,
    p = 1 (mod n), 2^20 < p < 2^31, omega^n = 1 and omega^(n/q) != 1 for
    each prime q | n."""
    sieve = np.ones(46342, dtype=bool)
    sieve[:2] = False
    for q in range(2, 216):
        sieve[q * q::q] = False
    small_primes = np.flatnonzero(sieve)
    for n in range(1, 5001):
        p, omega = _order_root(n)
        assert 2 ** 20 < p < 2 ** 31 and (p - 1) % n == 0
        assert np.all(p % small_primes[small_primes * small_primes <= p] != 0)
        assert pow(omega, n, p) == 1
        factors = small_primes[small_primes <= n]
        assert all(pow(omega, n // int(q), p) != 1 for q in factors[n % factors == 0])
    assert _order_root(2 ** 31) is None
    assert _may_vanish(np.array([0, 1]), np.array([1, 1]), [2 ** 31, 3]).tolist() == [True, False]
