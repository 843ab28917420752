"""Digit-set masks and their zero sets.

The mask of a finite integer set is the normalized exponential sum
(1/#digits) * sum_b exp(-2*pi*i*b*x).  It has period 1 and value 1 at
x = 0.  Its zeros on [0,1) split into a rational part (fractions j/n
where the corresponding root-of-unity sum vanishes, detected exactly
through cyclotomic factors) and possibly finitely many irrational
points (unit circle roots of the residual polynomial, located
numerically and only ever reported, never silently used in exact
decisions).
"""

from __future__ import annotations

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


# np.cos is taken to be within this many ulps of cos and inside [-1, 1];
# glibc's cos, which numpy calls for float64, is within 1 ulp.
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
    """

    step: float
    coeffs: tuple[float, ...]
    slope: float
    rounding: float

    def __call__(self, y: np.ndarray) -> np.ndarray:
        c = y * self.step
        np.cos(c, out=c)
        b1, b2 = self.coeffs[-1], 0.0
        for a in self.coeffs[-2:0:-1]:
            b = c * (b1 + b1)
            b += a - b2
            b1, b2 = b, b1
        f = c * b1
        f += self.coeffs[0] - b2
        return np.clip(f, 0.0, 1.0, out=f)


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
                    float(slope) * 1.01, float(rounding) + 1)


@dataclass(frozen=True)
class RationalZeroSet:
    """The periodic set {phase + k*period : k integer, phase in phases}.

    Canonical form: period > 0, phases sorted, each in [0, period).
    """

    period: Fraction
    phases: tuple[Fraction, ...]

    def __post_init__(self):
        period = Fraction(self.period)
        if period <= 0:
            raise ValueError("period must be positive")
        reduced = sorted(set(Fraction(p) % period for p in self.phases))
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "phases", tuple(reduced))

    def __bool__(self) -> bool:
        return bool(self.phases)

    def contains(self, x: Rational) -> bool:
        return Fraction(x) % self.period in self.phases

    def __contains__(self, x) -> bool:
        return self.contains(x)

    def members_in(self, lo: Rational, hi: Rational) -> list[Fraction]:
        """All elements in the closed interval [lo, hi], ascending."""
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        if hi < lo:
            return out
        for p in self.phases:
            # smallest k with p + k*period >= lo
            k = -((p - lo) // self.period)
            x = p + k * self.period
            while x <= hi:
                out.append(x)
                x += self.period
        return sorted(out)

    def min_abs_nonzero(self) -> Fraction:
        """Distance from 0 to the nearest nonzero element.

        The phases are sorted in [0, period), so the nearest elements are
        the first nonzero phase and the last phase minus the period.
        """
        nonzero = self.phases[1:] if self.phases[:1] == (0,) else self.phases
        if not nonzero:
            return self.period
        return min(nonzero[0], self.period - nonzero[-1])

    def scaled(self, c: Rational) -> "RationalZeroSet":
        c = Fraction(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return RationalZeroSet(self.period * c, tuple(p * c for p in self.phases))

    def to_json(self) -> dict:
        return {
            "period": frac_str(self.period),
            "phases": [frac_str(p) for p in self.phases],
        }


@dataclass(frozen=True)
class IrrationalZeroFlag:
    """Marker that a digit set has mask zeros off the rational grid.

    `angles` are numeric approximations of those zeros in (0, 1); they are
    diagnostics, not certificates.
    """

    angles: tuple[float, ...]

    def to_json(self) -> dict:
        return {"irrational_zero_angles": list(self.angles)}


@dataclass(frozen=True)
class MaskZeros:
    rational: RationalZeroSet
    irrational: Optional[IrrationalZeroFlag]

    def to_json(self) -> dict:
        out = {"rational": self.rational.to_json()}
        if self.irrational is not None:
            out.update(self.irrational.to_json())
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
    phases = []
    for n in orders:
        for j in range(1, n):
            if gcd(j, n) == 1:
                phases.append(Fraction(j, n))
    angles = unit_circle_angles(residual)
    flag = IrrationalZeroFlag(tuple(angles)) if angles else None
    return MaskZeros(RationalZeroSet(Fraction(1), tuple(phases)), flag)


class IrrationalZeroPresent(ValueError):
    """A mask has zeros off the rational grid, so any enumeration that
    promises completeness over the rationals would silently lie."""

    def __init__(self, digits: tuple[int, ...], angles: tuple[float, ...]):
        super().__init__(
            f"digit set {digits} has mask zeros off the rational grid "
            f"(angles ~ {angles}); the rational part alone is not the whole zero set"
        )
        self.digits = digits
        self.angles = angles


def rational_zeros(digits: Sequence[int]) -> RationalZeroSet:
    """Rational zero phases of the mask; raises if irrational zeros exist,
    so callers relying on completeness cannot be fooled."""
    mz = mask_zero_set(tuple(digits))
    if mz.irrational is not None:
        raise IrrationalZeroPresent(tuple(digits), mz.irrational.angles)
    return mz.rational


def window_zeros(
    levels: Iterator[tuple[Fraction, tuple[int, ...]]],
    lo: Rational,
    hi: Rational,
    min_zero_gap: Fraction,
) -> list[Fraction]:
    """Zeros in [lo, hi] of a product of masks taken at x / scale_k.

    `levels` yields (scale_k, digits_k) with |scale_k| strictly
    increasing; the sign does not matter, as mask zero sets are symmetric
    under negation.  Factor k contributes its mask's zero set blown up by
    scale_k, whose nonzero elements all have absolute value >= scale_k
    times the least nonzero mask zero distance over the whole level
    alphabet.  `min_zero_gap` must be a positive lower bound on that
    distance valid for EVERY level, not just the ones already seen; once
    scale * min_zero_gap clears max(|lo|, |hi|), no later factor can
    reach the window and enumeration stops.  Raises if a digit set has
    irrational mask zeros, since the rational window would then be
    incomplete.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    reach = max(abs(lo), abs(hi))
    zeros: set[Fraction] = set()
    for scale, digits in levels:
        scale = abs(Fraction(scale))
        zs = rational_zeros(tuple(digits))
        if zs:
            zeros.update(zs.scaled(scale).members_in(lo, hi))
        if scale * min_zero_gap > reach:
            break
    return sorted(zeros)
