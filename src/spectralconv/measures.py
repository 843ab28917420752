"""Exact atomic measures and their Fourier transforms.

A measure is kept on an integer lattice: positions are integer numerators
over one common denominator and weights are integers over their total, so
convolution, mixture and affine image are one exact merge of equal keys.
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
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable, Sequence, Union

import numpy as np

Xi = Union[int, float, Fraction]

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
    return _ratio_str(*Fraction(x).as_integer_ratio())


def _ratio_str(n: int, d: int) -> str:  # frac_str(n / d) for d > 0, with one gcd
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _ratio_strs(nums: np.ndarray, d: int) -> np.ndarray:
    """_ratio_str(n, d) for each n of an integer array, as an object array:
    one vectorized gcd over the distinct values, one "/m" per distinct
    reduced denominator m."""
    values, index = np.unique(nums, return_inverse=True)
    g = np.gcd(values, d)
    dens, which = np.unique(d // g, return_inverse=True)
    slash = np.array([f"/{m}" if m != 1 else "" for m in dens.tolist()], object)
    return (np.array(list(map(str, (values // g).tolist())), object) + slash[which])[index]


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
class AffineMap:
    """x -> a*x + b with a != 0."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0:
            raise ValueError("affine map must have a != 0")


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
        merged: dict[Fraction, Fraction] = {}
        for x, w in pairs:
            merged[Fraction(x)] = merged.get(Fraction(x), Fraction(0)) + Fraction(w)
        atoms = sorted(merged.items())
        den = lcm(*(x.denominator for x, _ in atoms))
        total = lcm(*(w.denominator for _, w in atoms))
        return cls(den, tuple(int(x * den) for x, _ in atoms),
                   tuple(int(w * total) for _, w in atoms), total)

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

    def to_records(self) -> np.ndarray:
        """The atoms as records of their reduced "w" and "x" strings."""
        dtype = int_dtype(max(-self.nums[0], self.nums[-1], self.den, self.total))
        out = np.empty(len(self.nums), [("w", object), ("x", object)])
        out["w"] = _ratio_strs(np.array(self.weights, dtype), self.total)
        out["x"] = _ratio_strs(np.array(self.nums, dtype), self.den)
        return out

    def to_json(self) -> list[dict]:
        return [{"x": x, "w": w} for w, x in self.to_records().tolist()]

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


def pushforward(m: AtomicMeasure, t: AffineMap) -> AtomicMeasure:
    den = lcm(m.den * t.a.denominator, t.b.denominator)
    a, b = int(t.a * den / m.den), int(t.b * den)  # x = n / m.den -> (a n + b) / den
    return AtomicMeasure.from_lattice(den, {a * n + b: w for n, w in zip(m.nums, m.weights)})


def mixture(components: Sequence[tuple[Xi, AtomicMeasure]]) -> AtomicMeasure:
    """Convex combination sum_i c_i * m_i with exact weights."""
    components = [(Fraction(c), m) for c, m in components]
    if any(c <= 0 for c, _ in components):
        raise ValueError("mixture weights must be positive")
    if sum(c for c, _ in components) != 1:
        raise ValueError(f"mixture weights sum to {sum(c for c, _ in components)}, expected 1")
    den = lcm(*(m.den for _, m in components))
    scale = lcm(*(c.denominator * m.total for c, m in components))
    out: dict[int, int] = {}
    for c, m in components:
        f, g = den // m.den, int(c * scale / m.total)
        for n, w in zip(m.nums, m.weights):
            out[n * f] = out.get(n * f, 0) + w * g
    return AtomicMeasure.from_lattice(den, out)
