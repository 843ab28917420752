"""Exact atomic measures and their Fourier transforms.

A measure is kept on an integer lattice: positions are integer numerators
over one common denominator and weights are integers over their total, so
convolution and a weighted sum of translates are one exact merge of equal keys.
Every family handled by this package has rational atoms, and decisions
about collisions, zeros and periodicity are only sound when made exactly.
Floating point enters once per Fourier evaluation: for a rational
frequency the phase xi*x is reduced modulo 1 in exact arithmetic first,
atoms sharing a reduced phase are merged exactly, and only then is a
complex exponential taken in double precision.  Quarter phases (0, 1/4,
1/2, 3/4) are emitted as exact unit values, which makes the classic
two-digit cancellations bit-exact.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence, Union

import numpy as np

Xi = Union[int, float, Fraction]

JSON_SCALARS = frozenset((str, int, float, bool, type(None)))

# Strict rational upper bound for 2*pi; used wherever an evaluation depth
# or an error bound is chosen by exact comparison, so the choice itself
# cannot be a float bug.
TWO_PI_UPPER = Fraction(710, 113)

_QUARTER = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): -1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): 1j,
}


def frac_mod1(x: Fraction) -> Fraction:
    """Reduce x into [0, 1) exactly."""
    return x - (x.numerator // x.denominator)


def parse_frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise TypeError("expected a fraction string, got %r" % (text,))
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_int(value) -> int:
    """A JSON integer; a float (4.0 too), a bool or a string raises."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("expected an integer, got %r" % (value,))
    return value


def frac_str(x: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when it is 1."""
    n, d = Fraction(x).as_integer_ratio()
    return str(n) if d == 1 else f"{n}/{d}"


def _json_value(value):
    if isinstance(value, Fraction):
        return frac_str(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [x if type(x) in JSON_SCALARS else _json_value(x) for x in value]
    return value


class JsonRecord:
    """A dataclass record printed as its fields, under their own names.

    A None field is left out, a Fraction prints as its frac_str, a value
    with a to_json by it, a tuple or list item by item, and anything else
    as it is.  Classes whose JSON keys are not their field names keep their
    own to_json: the input formats (AdmissiblePair, the exponent and tail
    rules, SparseInsertionSpec), RationalZeroSet, MaskZeros and
    MonteCarloSummary.  AtomicMeasure has none: the command line prints
    its atoms straight from the lattice integers.
    """

    def to_json(self) -> dict:
        return {f.name: _json_value(value) for f in fields(self)
                if (value := getattr(self, f.name)) is not None}


def int_dtype(top: int):
    """int64 for integer arrays whose values never exceed top in size, when
    that fits; object, holding Python ints, otherwise."""
    return np.int64 if top < 1 << 63 else object


def phase_unit(theta: Fraction) -> complex:
    """exp(-2*pi*i*theta) for theta already reduced into [0, 1)."""
    exact = _QUARTER.get(theta)
    if exact is not None:
        return exact
    return cmath.exp(-2j * cmath.pi * float(theta))


@dataclass(frozen=True)
class ComplexInterval:
    """A complex value together with a certified radius: the true quantity
    lies within `radius` of `value` in modulus."""

    value: complex
    radius: float

    def abs_lower(self) -> float:
        return max(0.0, abs(self.value) - self.radius)

    def abs_upper(self) -> float:
        return abs(self.value) + self.radius


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure with rational atoms.

    Atom i sits at nums[i] / den with weight weights[i] / total: sorted
    distinct numerators, positive weights summing to total, den and total
    minimal, so equality is bit-exact structural equality.  `atoms` is the
    (position, weight) Fraction view.
    """

    den: int
    nums: tuple[int, ...]
    weights: tuple[int, ...]
    total: int

    def __post_init__(self):
        nums, weights = self.nums, self.weights
        if weights and min(weights) <= 0:
            x = Fraction(nums[[w > 0 for w in weights].index(False)], self.den)
            raise ValueError(f"weight at {x} must be positive")
        if len(weights) != len(nums) or sum(weights) != self.total:
            raise ValueError(f"weights sum to {Fraction(sum(weights), self.total)}, expected 1")
        if not (self.den > 0 and gcd(self.den, *nums) == gcd(*weights) == 1
                and all(map(lt, nums, nums[1:]))):
            raise ValueError("atoms need sorted distinct positions over minimal denominators")

    @classmethod
    def from_lattice(cls, den: int, acc: dict[int, int]) -> "AtomicMeasure":
        """Mass proportional to acc[n] at each n / den, for den > 0."""
        nums = sorted(acc)
        weights = [acc[n] for n in nums]
        g, gw = gcd(den, *nums), gcd(*weights)
        return cls(den // g, tuple(n // g for n in nums),
                   tuple(w // gw for w in weights), sum(weights) // gw)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Xi, Xi]]) -> "AtomicMeasure":
        pairs = [(Fraction(x), Fraction(w)) for x, w in pairs]
        den = lcm(*(x.denominator for x, _ in pairs))
        total = lcm(*(w.denominator for _, w in pairs))
        acc: dict[int, int] = {}
        for x, w in pairs:
            n = x.numerator * (den // x.denominator)
            acc[n] = acc.get(n, 0) + w.numerator * (total // w.denominator)
        nums = sorted(acc)
        g = gcd(total, *acc.values())  # merged weights may share a factor with total
        return cls(den, tuple(nums), tuple(acc[n] // g for n in nums), total // g)

    @classmethod
    def uniform(cls, points: Iterable[Xi]) -> "AtomicMeasure":
        pts = [Fraction(p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("uniform measure needs distinct points")
        return cls.from_pairs((p, Fraction(1, len(pts))) for p in pts)

    @classmethod
    def point(cls, x: Xi) -> "AtomicMeasure":
        return cls.from_pairs(((x, 1),))

    @property
    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.positions(), (Fraction(w, self.total) for w in self.weights)))

    def positions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def support_min(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def support_max(self) -> Fraction:
        return Fraction(self.nums[-1], self.den)

    def mass_in(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Total weight of atoms inside the open interval (lo, hi)."""
        inside = self.weights[bisect_right(self.nums, lo * self.den):bisect_left(self.nums, hi * self.den)]
        return Fraction(sum(inside), self.total)

    def ft(self, xi: Union[int, Fraction]) -> complex:
        """Fourier transform sum_j w_j exp(-2*pi*i*xi*x_j)."""
        xi = Fraction(xi)
        period = xi.denominator * self.den
        groups: dict[int, int] = {}  # period * frac(xi*x) -> weight
        for n, w in zip(self.nums, self.weights):
            theta = xi.numerator * n % period
            groups[theta] = groups.get(theta, 0) + w
        return sum(w / self.total * phase_unit(Fraction(theta, period))
                   for theta, w in groups.items())

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "AtomicMeasure":
        return cls.from_pairs((parse_frac(d["x"]), parse_frac(d["w"])) for d in data)


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Convolution: atoms at pairwise sums, colliding weights merged exactly."""
    den = lcm(m1.den, m2.den)
    right = [(n * (den // m2.den), w) for n, w in zip(m2.nums, m2.weights)]
    out: dict[int, int] = {}
    for n1, w1 in zip(m1.nums, m1.weights):
        base = n1 * (den // m1.den)
        for n2, w2 in right:
            out[base + n2] = out.get(base + n2, 0) + w1 * w2
    return AtomicMeasure.from_lattice(den, out)

