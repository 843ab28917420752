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


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely supported probability measure with rational atoms.

    Atom i sits at nums[i] / den with weight weights[i] / total: sorted
    distinct numerators, positive weights summing to total, den and total
    minimal.  nums and weights are read-only integer arrays, int64 or, past
    2^63, Python ints, in a dtype that holds den and total; == compares
    values whatever the dtype.  `atoms` is the (position, weight) view.
    """

    den: int
    nums: np.ndarray
    weights: np.ndarray
    total: int

    def __post_init__(self):
        nums, weights, den, total = self.nums, self.weights, self.den, self.total
        if len(weights) and weights.min() <= 0:
            x = Fraction(int(nums[np.argmax(weights <= 0)]), den)
            raise ValueError(f"weight at {x} must be positive")
        # an int64 sum of positive weights can wrap only where len * max passes 2^63
        wraps = len(weights) * int(weights.max(initial=0)) >> 63
        mass = sum(weights.tolist()) if wraps else int(weights.sum())
        if len(weights) != len(nums) or mass != total:
            raise ValueError(f"weights sum to {Fraction(mass, total)}, expected 1")
        if not (den > 0 and gcd(den, int(np.gcd.reduce(nums))) == np.gcd.reduce(weights) == 1
                and (nums[1:] > nums[:-1]).all()):
            raise ValueError("atoms need sorted distinct positions over minimal denominators")
        nums.flags.writeable = weights.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, AtomicMeasure) and self.den == other.den
                and self.total == other.total and np.array_equal(self.nums, other.nums)
                and np.array_equal(self.weights, other.weights))

    @classmethod
    def from_lattice(cls, den: int, nums: np.ndarray, weights: np.ndarray) -> "AtomicMeasure":
        """Mass proportional to weights[i] at nums[i] / den (den > 0, one atom or
        more, a dtype that holds den, every numerator and every weight sum): a
        stable sort in place, one add.reduceat over equal numerators, lowest terms."""
        order = np.argsort(nums, kind="stable")
        nums[:], weights[:] = nums[order], weights[order]
        del order  # the merge below holds as many arrays as the sort did
        first = np.concatenate(([True], nums[1:] != nums[:-1]))
        nums, weights = nums[first], np.add.reduceat(weights, np.flatnonzero(first))
        # all-zero weights have gcd 0 and meet the constructor's positivity check
        g, gw = gcd(den, int(np.gcd.reduce(nums))), int(np.gcd.reduce(weights)) or 1
        nums //= g  # both arrays are the merge's own
        weights //= gw
        return cls(den // g, nums, weights, int(weights.sum()))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Xi, Xi]]) -> "AtomicMeasure":
        pairs = [(Fraction(x), Fraction(w)) for x, w in pairs]
        den = lcm(*(x.denominator for x, _ in pairs))
        total = lcm(*(w.denominator for _, w in pairs))
        nums = [x.numerator * (den // x.denominator) for x, _ in pairs]
        weights = [w.numerator * (total // w.denominator) for _, w in pairs]
        dtype = int_dtype(max(den, *map(abs, nums)) + sum(map(abs, weights)))
        if pairs:  # a nonpositive merged weight is reported before the sum
            m = cls.from_lattice(den, np.array(nums, dtype), np.array(weights, dtype))
        if sum(weights) != total:
            raise ValueError(f"weights sum to {Fraction(sum(weights), total)}, expected 1")
        return m

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
        return tuple((Fraction(n, self.den), Fraction(w, self.total))
                     for n, w in zip(self.nums.tolist(), self.weights.tolist()))

    def top(self) -> int:
        """The largest |numerator|, read off the sorted ends."""
        return max(-int(self.nums[0]), int(self.nums[-1]))

    def support_min(self) -> Fraction:
        return Fraction(int(self.nums[0]), self.den)

    def support_max(self) -> Fraction:
        return Fraction(int(self.nums[-1]), self.den)

    def mass_in(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Total weight of atoms inside the open interval (lo, hi)."""
        nums = self.nums.tolist()
        inside = self.weights[bisect_right(nums, lo * self.den):bisect_left(nums, hi * self.den)]
        return Fraction(int(inside.sum()), self.total)

    def ft(self, xi: Union[int, Fraction]) -> complex:
        """Fourier transform sum_j w_j e(-xi x_j), one exponential per phase xi x mod 1."""
        xi = Fraction(xi)
        period = xi.denominator * self.den
        dtype = int_dtype(max(abs(xi.numerator) * self.top(), period, self.total))
        image = AtomicMeasure.from_lattice(
            period, self.nums.astype(dtype) * xi.numerator % period, self.weights.astype(dtype))
        return sum(w / image.total * phase_unit(Fraction(theta, image.den))
                   for theta, w in zip(image.nums.tolist(), image.weights.tolist()))

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "AtomicMeasure":
        return cls.from_pairs((parse_frac(d["x"]), parse_frac(d["w"])) for d in data)


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Convolution: atoms at pairwise sums, colliding weights merged exactly."""
    den = lcm(m1.den, m2.den)
    s1, s2 = den // m1.den, den // m2.den
    dtype = int_dtype(max(m1.top() * s1 + m2.top() * s2, m1.total * m2.total, den))
    n1, w1, n2, w2 = (a.astype(dtype) for a in (m1.nums, m1.weights, m2.nums, m2.weights))
    return AtomicMeasure.from_lattice(den, np.add.outer(n1 * s1, n2 * s2).ravel(),
                                      np.multiply.outer(w1, w2).ravel())
