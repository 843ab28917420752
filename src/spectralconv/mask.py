"""Digit-set masks and their zero sets.

The mask of a finite integer set is the normalized exponential sum
(1/#digits) * sum_b exp(-2*pi*i*b*x).  It has period 1 and value 1 at
x = 0.  Its zeros on [0,1) split into a rational part (fractions j/n
where the corresponding root-of-unity sum vanishes, detected exactly
through cyclotomic factors) and possibly finitely many irrational
points (unit circle roots of the residual polynomial, located
numerically and only ever reported, never silently used in exact
decisions).  The rational part is a RationalZeroSet, integer numerators
over one denominator with period 1, so membership and windows come from
integer floor division.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .cyclotomic import cyclotomic_orders, unit_circle_angles
from .measures import TWO_PI_UPPER, frac_mod1, frac_str, phase_unit

Rational = Union[Fraction, int]


def eval_mask(digits: Sequence[int], x) -> complex:
    """Mean of exp(-2*pi*i*b*x) over the digit set.

    x is taken at its exact rational value (a float too), and each phase
    b*x is reduced modulo 1 exactly before one exponential is taken.
    This is the Fourier transform of the uniform atomic measure on the
    digits, and scaling the argument by 1/scale gives the transfer
    factor each convolution level contributes.
    """
    digits = list(digits)
    if not digits:
        raise ValueError("digit set must be nonempty")
    x = Fraction(x)
    total = 0 + 0j
    for b in digits:
        total += phase_unit(frac_mod1(b * x))
    return total / len(digits)


# np.cos and np.sin are taken to be within this many ulps and inside
# [-1, 1]; glibc's, which numpy calls for float64, are within 1 ulp.
COS_ULPS = 4


@dataclass(frozen=True)
class MaskAbs2:
    """The squared mask |m_B(y)|^2 of one digit set, vectorized.

    With mult(d) the number of digit pairs at difference d > 0 and g the
    gcd of the differences,

        |m_B(y)|^2 = 1/#B + sum_d (2 mult(d)/#B^2) cos(2 pi d y)
                   = sum_k coeffs[k] T_k(cos(2 pi g y)),

    because cos(2 pi k g y) = T_k(cos(2 pi g y)) for the Chebyshev
    polynomials T_k.  One evaluation is one cosine plus Clenshaw's
    recurrence b_k = coeffs[k] + 2c b_{k+1} - b_{k+2} down from the top
    index m = span/g (1 for two digits, 2 for {0,1,2}).  Results are
    clamped to [0, 1], the range of the true value.

    Error bound, with u = 2**-53: if |yhat - y| <= delta and |yhat| <= Y,
    the value at yhat is within slope*(delta + 3.1*u*Y) + rounding*u of
    |m_B(y)|^2.  The slope term covers the argument: 2 pi g is rounded
    twice, the product once, and the series moves by at most
    sum_k k coeffs[k] per radian.  The rounding term covers the cosine
    (COS_ULPS ulps of at most 2u each, times |d/dc| <= sum_k k^2 coeffs[k]),
    the rounding of the coefficients (u in all, as |T_k| <= 1) and
    Clenshaw's steps.  The computed b_k are the exact ones for
    coefficients moved by each step's rounding, which is at most
    u(|2c b_{k+1}| + coeffs[k] + |b_{k+2}| + |b_k|), so the result moves
    by at most their sum; |b_k| <= sum_{j>=k} coeffs[j] (j - k + 1), since
    b_k = sum_j coeffs[j] U_{j-k}(c) and |U_i| <= i + 1.
    ``terms`` lists (k g, coeffs[k]) for each k > 0 with coeffs[k] != 0.
    """

    step: float
    coeffs: tuple[float, ...]
    slope: float
    rounding: float
    terms: tuple[tuple[int, float], ...]

    def __call__(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        c = np.multiply(y, self.step, out=out)
        np.cos(c, out=c)
        b1, b2 = self.coeffs[-1], 0.0
        for a in self.coeffs[-2:0:-1]:
            b = c * (b1 + b1)
            b += a - b2
            b1, b2 = b, b1
        f = np.multiply(c, b1, out=c)
        f += self.coeffs[0] - b2
        np.maximum(f, 0.0, out=f)
        return np.minimum(f, 1.0, out=f)

    def error(self, delta: np.ndarray, ybound: np.ndarray) -> np.ndarray:
        """The bound above for |yhat - y| <= delta and |y| <= ybound."""
        u = 2.0 ** -53
        return self.slope * (delta + 3.1 * u * (ybound + delta)) + self.rounding * u

    def deficit(self, y: float) -> float:
        """1 - |m_B(y)|^2 = sum_{k>0} 2 coeffs[k] sin^2(pi k g y) at a float y.

        Every term is nonnegative, so when pi k g |y| <= 2 for every k the
        result is within (38 + len(coeffs)) u of the true value relatively,
        u = 2**-53: the argument x is off by at most 4u relatively (pi, the
        products by g, k and y), which moves the sine by at most
        4u x/sin(x) <= 8u/sin(2) < 8.8u of itself; the sine adds COS_ULPS
        ulps of at most 2u each, squaring doubles the sine's error, the
        coefficient and the three products add 3u, and the sum of positive
        terms u per term.
        """
        half = self.step / 2.0
        total = 0.0
        for k in range(1, len(self.coeffs)):
            if self.coeffs[k]:
                s = math.sin(half * k * y)
                total += 2.0 * self.coeffs[k] * s * s
        return total


@lru_cache(maxsize=None)
def mask_abs2(digits: tuple[int, ...]) -> MaskAbs2:
    """The cosine-series kernel of |mask|^2 for a digit set."""
    size = len(digits)
    mult: dict[int, int] = {}
    for i, a in enumerate(digits):
        for b in digits[i + 1:]:
            mult[abs(a - b)] = mult.get(abs(a - b), 0) + 1
    g = gcd(*mult)
    alpha = [Fraction(1, size)] + [Fraction(0)] * (max(mult) // g)
    for d, count in mult.items():
        alpha[d // g] = Fraction(2 * count, size * size)
    m = len(alpha) - 1
    # bound[k] >= |b_k|; twice the needed 2 bound[k+1] covers the (1 + u)
    # factors of the step bound
    bound = [sum(alpha[j] * (j - k + 1) for j in range(k, m + 1))
             for k in range(m + 1)] + [0, 0]
    steps = sum(4 * bound[k + 1] + alpha[k] + bound[k] + bound[k + 2]
                for k in range(m + 1))
    slope = TWO_PI_UPPER * g * sum(k * a for k, a in enumerate(alpha))
    rounding = (2 * COS_ULPS * sum(a * k * k for k, a in enumerate(alpha))
                + Fraction(101, 100) * steps + 1)
    # the 1% and the +1 cover rounding these constants to floats
    return MaskAbs2(2 * np.pi * g, tuple(float(a) for a in alpha),
                    float(slope) * 1.01, float(rounding) + 1,
                    tuple((k * g, float(a)) for k, a in enumerate(alpha) if k and a))


@dataclass(frozen=True)
class RationalZeroSet:
    """The set of x whose fractional part times den is in phases.

    Every zero set here has period 1, so it is held as integer numerators
    over one denominator.  Canonical form: phases strictly increasing in
    [0, den), and den minimal, that is gcd(den, *phases) == 1 (den == 1
    for the empty set).
    """

    den: int
    phases: tuple[int, ...]

    def __post_init__(self):
        p = self.phases
        if self.den < 1 or list(p) != sorted(set(p)) or not all(0 <= a < self.den for a in p):
            raise ValueError("phases must be distinct, sorted and inside [0, den)")
        if gcd(self.den, *p) != 1:
            raise ValueError("den must be minimal: gcd(den, *phases) == 1")

    @classmethod
    def from_orders(cls, orders: Sequence[int]) -> "RationalZeroSet":
        """The phases j/n, 0 < j < n, gcd(j, n) == 1, of the primitive n-th
        roots of unity for every order n."""
        den = math.lcm(*orders)
        return cls(den, tuple(sorted(j * (den // n) for n in orders
                                     for j in range(1, n) if gcd(j, n) == 1)))

    def contains(self, x: Rational) -> bool:
        q, rem = divmod(self.den, x.denominator)
        if rem:
            return False
        m = x.numerator * q % self.den
        i = bisect_left(self.phases, m)
        return i < len(self.phases) and self.phases[i] == m

    __contains__ = contains

    def members_in(self, lo: Rational, hi: Rational) -> list[Fraction]:
        """All elements m/den in the closed interval [lo, hi], ascending."""
        d = self.den
        mlo = -(-lo.numerator * d // lo.denominator)
        mhi = hi.numerator * d // hi.denominator
        return [Fraction(base + p, d)
                for base in range(mlo - mlo % d, mhi + 1, d)
                for p in self.phases if mlo <= base + p <= mhi]

    def min_abs_nonzero(self) -> Fraction:
        """Distance from 0 to the nearest nonzero element.

        The phases are sorted in [0, den), so the nearest elements are the
        first nonzero phase and the last phase minus den, over den.
        """
        nonzero = self.phases[1:] if self.phases[:1] == (0,) else self.phases
        if not nonzero:
            return Fraction(1)
        return Fraction(min(nonzero[0], self.den - nonzero[-1]), self.den)

    def to_json(self) -> dict:
        return {
            "period": "1",
            "phases": [frac_str(Fraction(p, self.den)) for p in self.phases],
        }


@dataclass(frozen=True)
class MaskZeros:
    """The rational zero set, and numeric approximations in (0, 1) of the
    zeros off the rational grid (empty when there are none); the angles
    are diagnostics, not certificates."""

    rational: RationalZeroSet
    irrational: tuple[float, ...]

    def to_json(self) -> dict:
        out = {"rational": self.rational.to_json()}
        if self.irrational:
            out["irrational_zero_angles"] = list(self.irrational)
        return out


@lru_cache(maxsize=None)
def mask_zero_set(digits: tuple[int, ...]) -> MaskZeros:
    """Complete zero description of the digit-set mask on one period.

    Translating the digits multiplies the mask by a unit phase, so they
    are first shifted to start at 0; repeated digits would rescale, not
    add zeros, and are rejected.
    """
    digits = tuple(sorted(digits))
    if len(set(digits)) != len(digits):
        raise ValueError("digit set must have distinct elements")
    b0 = digits[0]
    coeffs = [0] * (digits[-1] - b0 + 1)
    for b in digits:
        coeffs[b - b0] = 1
    orders, residual = cyclotomic_orders(coeffs)
    return MaskZeros(RationalZeroSet.from_orders(orders), unit_circle_angles(residual))


class IrrationalZeroPresent(ValueError):
    """A mask has zeros off the rational grid, so any enumeration that
    promises completeness over the rationals would silently lie."""


def scaled_zero_sets(
    levels: Iterator[tuple[int, tuple[int, ...]]],
    bound: Rational,
    gap: Optional[Fraction],
) -> Iterator[tuple[int, RationalZeroSet]]:
    """(|scale_k|, rational zero set of mask k) for every level k whose
    zeros blown up by scale_k can reach [-bound, bound], and whose mask
    vanishes at a rational point.

    `levels` yields (scale_k, digits_k) with |scale_k| strictly
    increasing; the sign does not matter, as mask zero sets are symmetric
    under negation.  `gap` must be a positive lower bound on |z| over the
    nonzero rational mask zeros z of EVERY level, not just the ones
    already seen (None when no level's mask vanishes at a rational
    point).  Mask zero sets never hold 0, so level k's scaled zeros all
    have absolute value >= |scale_k| * gap; once that clears the bound,
    no later level reaches it and the walk stops.
    """
    if gap is None:
        return
    for scale, digits in levels:
        scale = abs(scale)
        if scale * gap > bound:
            return
        zs = mask_zero_set(digits).rational
        if zs.phases:
            yield scale, zs


def window_zeros(
    levels: Iterator[tuple[int, tuple[int, ...]]],
    hi: Rational,
    gap: Optional[Fraction],
) -> list[Fraction]:
    """Rational zeros in [0, hi] of a product of masks taken at x / scale_k,
    over the levels of ``scaled_zero_sets(levels, hi, gap)``.

    The list is the whole zero set in [0, hi] only when no digit set has
    irrational mask zeros; ``convolution.zero_set_window`` decides that.
    """
    hi = Fraction(hi)
    zeros: set[Fraction] = set()
    for scale, zs in scaled_zero_sets(levels, hi, gap):
        zeros.update(scale * z for z in zs.members_in(0, hi / scale))
    return sorted(zeros)
