"""Exact atomic measures and their Fourier transforms.

Atom positions and weights are fractions.Fraction throughout.  Every family
handled by this package has rational atoms, and decisions about collisions,
zeros and periodicity are only sound when made exactly.  Floating point
enters once per Fourier evaluation: for a rational frequency the phase
xi*x is reduced modulo 1 in rational arithmetic first, atoms sharing a
reduced phase are merged exactly, and only then is a complex exponential
taken in double precision.  Quarter phases (0, 1/4, 1/2, 3/4) are emitted
as exact unit values, which makes the classic two-digit cancellations
bit-exact.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

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


def frac_str(x: Fraction) -> str:
    """Canonical "num/den" form, denominator omitted when it is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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

    def __call__(self, x: Fraction) -> Fraction:
        return self.a * x + self.b


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure with rational atoms.

    `atoms` is sorted by position; weights are positive and sum to 1
    exactly.  Equality is therefore bit-exact structural equality.
    """

    atoms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        prev = None
        for x, w in self.atoms:
            if w <= 0:
                raise ValueError(f"weight at {x} must be positive")
            if prev is not None and x <= prev:
                raise ValueError("atoms must be sorted with distinct positions")
            prev = x
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Xi, Xi]]) -> "AtomicMeasure":
        merged: dict[Fraction, Fraction] = {}
        for x, w in pairs:
            merged[Fraction(x)] = merged.get(Fraction(x), Fraction(0)) + Fraction(w)
        return cls(tuple(sorted((x, w) for x, w in merged.items() if w != 0)))

    @classmethod
    def uniform(cls, points: Iterable[Xi]) -> "AtomicMeasure":
        pts = [Fraction(p) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("uniform measure needs distinct points")
        w = Fraction(1, len(pts))
        return cls(tuple(sorted((p, w) for p in pts)))

    @classmethod
    def point(cls, x: Xi) -> "AtomicMeasure":
        return cls(((Fraction(x), Fraction(1)),))

    def positions(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.atoms)

    def support_min(self) -> Fraction:
        return self.atoms[0][0]

    def support_max(self) -> Fraction:
        return self.atoms[-1][0]

    def mass_in(self, lo: Fraction, hi: Fraction, open_interval: bool = True) -> Fraction:
        """Total weight of atoms inside the interval (lo, hi) (or [lo, hi])."""
        total = Fraction(0)
        for x, w in self.atoms:
            if open_interval:
                if lo < x < hi:
                    total += w
            else:
                if lo <= x <= hi:
                    total += w
        return total

    def ft(self, xi: Union[int, Fraction]) -> complex:
        """Fourier transform sum_j w_j exp(-2*pi*i*xi*x_j)."""
        xi = Fraction(xi)
        groups: dict[Fraction, Fraction] = {}
        for x, w in self.atoms:
            theta = frac_mod1(xi * x)
            groups[theta] = groups.get(theta, Fraction(0)) + w
        return sum(float(w) * phase_unit(theta) for theta, w in groups.items())

    def ft_interval(self, xi: Union[int, Fraction]) -> ComplexInterval:
        return ComplexInterval(self.ft(xi), (len(self.atoms) + 2) * 1e-15)

    def to_json(self) -> list[dict]:
        return [{"x": frac_str(x), "w": frac_str(w)} for x, w in self.atoms]

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "AtomicMeasure":
        return cls.from_pairs((parse_frac(d["x"]), parse_frac(d["w"])) for d in data)


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Convolution: atoms at pairwise sums, colliding weights merged exactly."""
    out: dict[Fraction, Fraction] = {}
    for x1, w1 in m1.atoms:
        for x2, w2 in m2.atoms:
            s = x1 + x2
            out[s] = out.get(s, Fraction(0)) + w1 * w2
    return AtomicMeasure(tuple(sorted(out.items())))


def pushforward(m: AtomicMeasure, t: AffineMap) -> AtomicMeasure:
    return AtomicMeasure(tuple(sorted((t(x), w) for x, w in m.atoms)))


def mixture(components: Sequence[tuple[Xi, AtomicMeasure]]) -> AtomicMeasure:
    """Convex combination sum_i c_i * m_i with exact weights."""
    out: dict[Fraction, Fraction] = {}
    total = Fraction(0)
    for c, m in components:
        c = Fraction(c)
        if c <= 0:
            raise ValueError("mixture weights must be positive")
        total += c
        for x, w in m.atoms:
            out[x] = out.get(x, Fraction(0)) + c * w
    if total != 1:
        raise ValueError(f"mixture weights sum to {total}, expected 1")
    return AtomicMeasure(tuple(sorted(out.items())))
