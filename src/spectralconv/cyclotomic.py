"""Integer-polynomial certificates for sums of roots of unity.

A sum of n-th roots of unity  sum_j c_j zeta^j  (zeta primitive) vanishes
precisely when the integer polynomial  sum_j c_j x^j  is divisible by the
n-th cyclotomic polynomial, so every vanishing question this package asks
reduces to an exact integer polynomial remainder.  The same machinery finds
all rational zeros of a nonnegative trigonometric polynomial: a point k/n in
lowest terms is a zero iff Phi_n divides the coefficient polynomial, and any
leftover factor with roots on the unit circle is reported instead of being
silently approximated.  That leftover is screened over F_p first: when
gcd(f mod p, f* mod p) is a constant, f has no reciprocal factor over Q,
so no root on the unit circle, and no integer gcd is run.

Polynomials are plain lists of ints, lowest degree first, trailing zeros
trimmed.  A modular prefilter rejects almost every candidate order before
any exact division: for a prime p = 1 (mod n) and omega of order n in F_p,
Phi_n(omega) = 0 in F_p, so a nonzero f(omega) mod p proves that Phi_n does
not divide f.  Orders it keeps are confirmed by exact division, so no
verdict rests on floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

import numpy as np

# Orders n with phi(n) <= d satisfy n <= _PHI_SLACK * d for every n below
# ~1.3e16 (the primorial where prod p/(p-1) first exceeds 7), far past desk
# scale.  Used to bound the candidate scan.
_PHI_SLACK = 7

# The order prefilter takes blocks of about _BLOCK_ENTRIES (order, support
# exponent) entries per numpy pass, with primes in (2^20, 2^31): a false
# pass has odds about 1/p, and products of residues stay below 2^62.
_BLOCK_ENTRIES = 1 << 13
_P_LOW, _P_HIGH = 1 << 20, 1 << 31

# The reciprocal-factor screen runs Euclid mod this prime: residues stay
# below 2^31, so a product c * b of two of them is below 2^62 in int64.
_GCD_PRIME = (1 << 31) - 1


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
    terms = [(j, dj) for j, dj in enumerate(den) if dj]
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - d] = c
        for j, dj in terms:
            rem[i - d + j] -= c * dj
    return trim(quot), trim(rem[:d])  # the steps zero every rem[i], i >= d


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


_PHI: np.ndarray = np.arange(2, dtype=np.int64)  # Euler phi sieve


def _grow_sieve(limit: int) -> None:
    global _PHI
    if len(_PHI) > limit:
        return
    phi = np.arange(max(limit + 1, 2 * len(_PHI), 1 << 10), dtype=np.int64)
    for p in range(2, len(phi)):
        if phi[p] == p:  # untouched, so prime
            phi[p::p] -= phi[p::p] // p
    _PHI = phi


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    _grow_sieve(n)
    return int(_PHI[n])


def _is_prime(p: int) -> bool:
    """Strong probable prime to bases 2, 7 and 61: exact for 61 < p < 4,759,123,141."""
    if gcd(p, 30030) > 1:
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in (2, 7, 61):
        x = pow(a, (p - 1) >> s, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _order_root(n: int) -> Optional[tuple[int, int]]:
    """(p, omega): the least prime p = 1 (mod n) in (2^20, 2^31) and the
    first g^((p-1)/n), g = 2, 3, ..., of exact order n mod p; None if no
    such prime exists."""
    for k in range(-(-_P_LOW // n), (_P_HIGH - 2) // n + 1):
        if _is_prime(p := k * n + 1):
            ds = divisors(n)  # a prime divisor has no smaller divisor above 1
            primes = [q for i, q in enumerate(ds) if i and all(q % r for r in ds[1:i])]
            for g in range(2, p):
                omega = pow(g, k, p)
                if all(pow(omega, n // q, p) != 1 for q in primes):
                    return p, omega
    return None


def _may_vanish(exps: np.ndarray, coeffs: np.ndarray, orders: Sequence[int]) -> np.ndarray:
    """Per order n, False when sum_j c_j zeta_n^(e_j) is proved nonzero: its
    image under zeta_n -> omega in F_p is nonzero.  Powers come four exponent
    bits at a time from a per-order table of base^0..base^15; an order
    without a pair gets p = 1 and is always kept.  coeffs is int64, or
    object past int64."""
    pairs = np.array([_order_root(n) or (1, 0) for n in orders], dtype=np.int64)
    p, base = pairs.reshape(-1, 2).T[:, :, None]  # (orders, 1) columns
    e = exps % np.array(orders, dtype=np.int64)[:, None]
    power, rows = np.ones_like(e), np.arange(len(orders))[:, None]
    table = np.ones((len(orders), 16), dtype=np.int64)
    while e.any():
        for k in (1, 2, 4, 8):  # table[:, j] = base^j
            table[:, k:2 * k] = table[:, :k] * base % p
            base = base * base % p
        power *= table[rows, e & 15]
        power %= p
        e >>= 4
    power *= (coeffs % p).astype(np.int64, copy=False)
    return (power % p).sum(axis=1) % p[:, 0] == 0


def _nonzero_at_root(coeffs: Sequence[int], n: int) -> bool:
    """True when f(omega) != 0 in F_p for the (p, omega) of order n, which
    proves that Phi_n does not divide f; False without such a pair.  As
    omega^n = 1, a polynomial with more than 4n coefficients is first
    folded to their n sums over the exponent classes mod n."""
    p, omega = _order_root(n) or (1, 0)
    if len(coeffs) > 4 * n:
        coeffs = [sum(coeffs[r::n]) for r in range(n)]
    value = 0
    for c in reversed(coeffs):
        value = (value * omega + c) % p
    return value != 0


def exponent_sum_vanishes(n: int, exponents: Iterable[int]) -> bool:
    """Exact test of sum_e zeta_n^e == 0 for zeta_n a primitive n-th root.

    Exponents may repeat and may be negative; n >= 1.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("order must be nonzero")
    exps = [e % n for e in exponents]
    if not exps:
        return True
    p, omega = _order_root(n) or (1, 0)  # for one order, pow beats _may_vanish's numpy setup
    if sum(pow(omega, e, p) for e in exps) % p:
        return False
    # Exact reductions, so no list of length n is built: a shift multiplies the
    # sum by a root of unity, zeta_n^g is a primitive (n/g)-th root for g =
    # gcd(n, differences), and the widest cyclic gap closes the window [0, top].
    g = gcd(n, *(e - exps[0] for e in exps))
    n, exps = n // g, [(e - exps[0]) % n // g for e in exps]
    points = sorted(set(exps))
    gap, start = max((b - a, b) for a, b in zip(points, points[1:] + [points[0] + n]))
    top = n - gap
    if 2 * top * top < n:  # Phi_n | f needs phi(n) <= top, and phi(n) >= sqrt(n / 2)
        return False
    coeffs = [0] * (top + 1)
    for e in exps:
        coeffs[(e - start) % n] += 1
    _, rem = poly_divmod(coeffs, list(cyclotomic(n)))
    return not rem


def cyclotomic_orders(coeffs: Sequence[int]) -> tuple[list[int], list[int]]:
    """All n with Phi_n dividing the polynomial, plus the cyclotomic-free part.

    Returns (orders, residual) where residual is coeffs with every
    cyclotomic factor (and any power of x) divided out.  The scan covers
    every n with phi(n) <= deg in increasing order, in blocks that go through
    the modular prefilter together; the orders it keeps are divided exactly,
    one by one, until the residual is a constant.
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
    support = [e for e, c in enumerate(residual) if c]
    values = [residual[e] for e in support]
    exps = np.array(support, dtype=np.int64)
    values = np.array(values, dtype=np.int64 if max(map(abs, values)) < 1 << 63 else object)
    n_max = _PHI_SLACK * d
    _grow_sieve(n_max)
    candidates = np.flatnonzero(_PHI[1:n_max + 1] <= d) + 1
    per_block = max(1, _BLOCK_ENTRIES // len(support))
    for start in range(0, len(candidates), per_block):
        block = candidates[start:start + per_block]
        block = block[_PHI[block] <= degree(residual)].tolist()
        for n, kept in zip(block, _may_vanish(exps, values, block)):
            if not kept or _PHI[n] > degree(residual):
                continue
            phi_n = list(cyclotomic(n))
            quot, rem = poly_divmod(residual, phi_n)
            if rem:
                continue
            orders.append(n)
            residual = quot
            # strip multiplicity; the zero set does not care, the residual does
            while not _nonzero_at_root(residual, n):
                quot, rem = poly_divmod(residual, phi_n)
                if rem:
                    break
                residual = quot
            if degree(residual) == 0:
                return orders, residual
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


def _gcd_degree_mod_p(a: Sequence[int], b: Sequence[int]) -> int:
    """Degree of gcd(a mod p, b mod p) over F_p, p = _GCD_PRIME; -1 when
    both vanish mod p.

    Euclid runs in place on int64 arrays, highest coefficient first.  Each
    coefficient is reduced mod p as a Python int before it enters numpy,
    so coefficients past int64 are exact, and each step keeps every entry
    in [0, p).
    """
    p = _GCD_PRIME

    def residues(coeffs: Sequence[int]) -> np.ndarray:
        r = np.array([c % p for c in reversed(coeffs)], dtype=np.int64)
        return r[np.argmax(r != 0):] if r.any() else r[:0]

    big, small = sorted((residues(a), residues(b)), key=len, reverse=True)
    while small.size:
        m, inv = len(small), pow(int(small[0]), -1, p)
        for i in range(len(big) - m + 1):  # the remainder is big[-(m - 1):]
            c = int(big[i]) * inv % p
            if c:
                seg = big[i:i + m]
                seg -= c * small
                seg %= p
        rem = big[len(big) - m + 1:]
        big, small = small, rem[np.argmax(rem != 0):] if rem.any() else rem[:0]
    return len(big) - 1


def unit_circle_angles(coeffs: Sequence[int]) -> tuple[float, ...]:
    """Approximate angles t in [0,1) of unit-modulus roots exp(-2*pi*i*t).

    Meant for a cyclotomic-free residual: any angle reported here belongs to
    a root that is not a root of unity, hence irrational.  A root z with
    |z| = 1 has 1/z = conj(z) as a root as well, so it is a root of the
    reciprocal part gcd(f, f*), f* the reversed polynomial.  That part is
    first screened over F_p: when p divides neither leading coefficient and
    the gcd mod p is a constant, the gcd over Q is 1 (a primitive common
    factor over Z would keep its degree mod p), and the answer is () with
    no float involved.  Otherwise the primitive integer gcd is computed and
    its roots are found numerically (the exact layer has already removed
    every rational candidate), so callers treat a nonempty answer as a
    flag, not a certificate.
    """
    cs = trim(coeffs)
    if degree(cs) <= 0:
        return ()
    rev = _poly_reverse(cs)
    if cs[-1] % _GCD_PRIME and rev[-1] % _GCD_PRIME and _gcd_degree_mod_p(cs, rev) == 0:
        return ()
    sym = poly_gcd(cs, rev)
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
