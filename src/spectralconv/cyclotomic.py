"""Integer-polynomial certificates for sums of roots of unity.

A sum of n-th roots of unity  sum_j c_j zeta^j  (zeta primitive) vanishes
precisely when the integer polynomial  sum_j c_j x^j  is divisible by the
n-th cyclotomic polynomial, so every vanishing question this package asks
reduces to an exact integer polynomial remainder.  The same machinery finds
all rational zeros of a nonnegative trigonometric polynomial: a point k/n in
lowest terms is a zero iff Phi_n divides the coefficient polynomial, and any
leftover factor with roots on the unit circle is reported instead of being
silently approximated.

Polynomials are plain lists of ints, lowest degree first, trailing zeros
trimmed.  A cheap certified numeric prefilter rejects the overwhelming
majority of candidate orders before any exact division happens; acceptance
is always confirmed exactly, so the floating point step can never flip a
verdict.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

import numpy as np

# Orders n with phi(n) <= d satisfy n <= _PHI_SLACK * d for every n below
# ~1.3e16 (the primorial where prod p/(p-1) first exceeds 7), far past desk
# scale.  Used to bound the candidate scan.
_PHI_SLACK = 7


def trim(coeffs: Sequence[int]) -> list[int]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def degree(coeffs: Sequence[int]) -> int:
    """Degree of a trimmed polynomial; -1 for the zero polynomial."""
    return len(coeffs) - 1


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Exact division by a monic integer polynomial."""
    den = trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    d = len(den) - 1
    if len(rem) - 1 < d:
        return [], trim(rem)
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - d] = c
        for j, dj in enumerate(den):
            rem[i - d + j] -= c * dj
    return trim(quot), trim(rem)


def divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial.

    Computed by the quotient recurrence Phi_n = (x^n - 1) / prod_{d|n, d<n}
    Phi_d; every division is exact over the integers.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in divisors(n)[:-1]:
        num, rem = poly_divmod(num, list(cyclotomic(d)))
        if rem:
            raise AssertionError("cyclotomic recurrence produced a remainder")
    return tuple(num)


_SPF: np.ndarray = np.zeros(2, dtype=np.int64)  # smallest prime factor sieve


def _grow_sieve(limit: int) -> None:
    global _SPF
    if len(_SPF) > limit:
        return
    size = max(limit + 1, 2 * len(_SPF), 1 << 10)
    spf = np.zeros(size, dtype=np.int64)
    for p in range(2, size):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    _SPF = spf


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    if n == 1:
        return 1
    _grow_sieve(n)
    phi = 1
    m = n
    while m > 1:
        p = int(_SPF[m])
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _nonzero_at_primitive_root(coeffs: Sequence[int], n: int) -> bool:
    """Float test that the value at exp(-2*pi*i/n) is clearly nonzero, so
    Phi_n does not divide; False leaves the question to exact division."""
    zeta = cmath.exp(-2j * cmath.pi / n)
    scale = 0
    # Horner on the folded exponents keeps arguments small.
    folded = [0] * n
    for e, c in enumerate(coeffs):
        if c:
            folded[e % n] += c
    acc = 0j
    for c in reversed(folded):
        acc = acc * zeta + c
        scale += abs(c)
    # error bound: each fold step is one complex mul (unit modulus) and one add
    return abs(acc) > max(1e-9, 10 * (4e-15 * (scale + n)))


def exponent_sum_vanishes(n: int, exponents: Iterable[int]) -> bool:
    """Exact test of sum_e zeta_n^e == 0 for zeta_n a primitive n-th root.

    Exponents may repeat and may be negative; n >= 1.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("order must be nonzero")
    coeffs = [0] * n
    count = 0
    for e in exponents:
        coeffs[e % n] += 1
        count += 1
    if count == 0:
        return True
    if _nonzero_at_primitive_root(coeffs, n):
        return False
    _, rem = poly_divmod(coeffs, list(cyclotomic(n)))
    return not rem


def cyclotomic_orders(coeffs: Sequence[int]) -> tuple[list[int], list[int]]:
    """All n with Phi_n dividing the polynomial, plus the cyclotomic-free part.

    Returns (orders, residual) where residual is coeffs with every
    cyclotomic factor (and any power of x) divided out.  The scan covers
    every n with phi(n) <= deg, using the numeric prefilter before any
    exact division.
    """
    residual = trim(coeffs)
    if not residual:
        raise ValueError("zero polynomial has every root")
    while residual[0] == 0:  # roots at the origin are not on the unit circle
        residual = residual[1:]
    d = degree(residual)
    if d <= 0:
        return [], residual
    orders: list[int] = []
    original = list(residual)
    n_max = _PHI_SLACK * d
    _grow_sieve(n_max)
    for n in range(1, n_max + 1):
        if euler_phi(n) > degree(residual):
            if degree(residual) == 0:
                break
            continue
        if _nonzero_at_primitive_root(original, n):
            continue
        phi_n = list(cyclotomic(n))
        quot, rem = poly_divmod(residual, phi_n)
        if rem:
            continue
        orders.append(n)
        residual = quot
        while True:  # strip multiplicity; the zero set does not care, the residual does
            quot, rem = poly_divmod(residual, phi_n)
            if rem or not quot:
                break
            residual = quot
    return orders, residual


def _poly_reverse(coeffs: Sequence[int]) -> list[int]:
    return trim(list(reversed(trim(coeffs))))


def _primitive(coeffs: Sequence[int]) -> list[int]:
    """The polynomial divided by its content, the gcd of its coefficients."""
    g = gcd(*coeffs) or 1
    return [c // g for c in coeffs]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd in Z[x] via the primitive pseudo-remainder sequence.

    Each reduction step is rem <- lc(b)*rem - c*x^k*b over the integers,
    followed by division by the content: no fraction appears, and the
    coefficients do not grow exponentially along the sequence as they
    would without that division.  The result has a positive leading
    coefficient.
    """
    fa, fb = trim(a), trim(b)
    while fb:
        rem = fa
        while len(rem) >= len(fb):
            c, k = rem[-1], len(rem) - len(fb)
            rem = [fb[-1] * r for r in rem]
            for j, bj in enumerate(fb):
                rem[k + j] -= c * bj
            rem = _primitive(trim(rem))
        fa, fb = fb, rem
    fa = _primitive(fa)
    return [-c for c in fa] if fa and fa[-1] < 0 else fa


def unit_circle_angles(coeffs: Sequence[int]) -> tuple[float, ...]:
    """Approximate angles t in [0,1) of unit-modulus roots exp(-2*pi*i*t).

    Meant for a cyclotomic-free residual: any angle reported here belongs to
    a root that is not a root of unity, hence irrational.  Detection is
    numeric (the exact layer has already removed every rational candidate),
    so callers treat a nonempty answer as a flag, not a certificate.
    """
    cs = trim(coeffs)
    if degree(cs) <= 0:
        return ()
    sym = poly_gcd(cs, _poly_reverse(cs))
    if degree(sym) <= 0:
        return ()
    roots = np.roots(np.array(sym[::-1], dtype=float))
    angles = []
    for z in roots:
        if abs(abs(z) - 1.0) < 1e-8:
            t = float((-np.angle(z) / (2 * np.pi)) % 1.0)
            angles.append(t)
    angles.sort()
    out: list[float] = []
    for t in angles:
        if not out or abs(t - out[-1]) > 1e-9:
            out.append(t)
    return tuple(out)
