"""Scaled digit sets whose discrete measures admit integer spectra.

A pair here is an integer scale ``N`` with ``|N| >= 2`` together with a
finite integer digit set ``B`` of size at least 2.  The uniform atomic
measure on ``B / N`` may admit an integer spectrum ``L``, meaning the
square matrix with entries ``exp(-2 pi i b l / N) / sqrt(#B)`` is
unitary.  Whether it does is decided exactly, by checking that every
nonzero spectrum difference drives the digit exponential sum to zero as
an algebraic identity on roots of unity, not by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .cyclotomic import exponent_sum_vanishes
from .measures import AffineMap, parse_int

FIND_SPECTRA_SCALE_LIMIT = 64


def _validated_scale(scale: int) -> int:
    if abs(parse_int(scale)) < 2:
        raise ValueError("scale must satisfy |scale| >= 2, got %r" % (scale,))
    return scale


def _validated_digits(digits) -> tuple:
    out = tuple(sorted(map(parse_int, digits)))
    if len(out) < 2:
        raise ValueError("need at least two digits, got %r" % (digits,))
    if len(set(out)) != len(out):
        raise ValueError("digits must be distinct, got %r" % (digits,))
    return out


def digit_sum_vanishes(scale: int, digits, delta: int) -> bool:
    """Exact test of sum_{b in B} exp(-2 pi i b delta / scale) == 0.

    The sign of the exponent does not matter: the sum vanishes exactly
    when its complex conjugate does, so only |scale| enters.
    """
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    if delta % n == 0:
        return False
    return exponent_sum_vanishes(n, [(b * delta) % n for b in ds])


def good_differences(scale: int, digits) -> frozenset:
    """Residues delta mod |scale| whose digit exponential sum vanishes.

    A set L of integers, pairwise distinct mod scale, is a spectrum
    exactly when every pairwise difference lands in this set mod |scale|.
    The set is closed under negation mod |scale| because the sum at
    -delta is the conjugate of the sum at delta.
    """
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    good = set()
    for delta in range(1, n):
        if (n - delta) in good:
            good.add(delta)
        elif exponent_sum_vanishes(n, [(b * delta) % n for b in ds]):
            good.add(delta)
    return frozenset(good)


def is_admissible(scale: int, digits, spectrum) -> bool:
    """Decide exactly whether ``spectrum`` makes the pair admissible."""
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    ls = tuple(sorted(spectrum))
    for l in ls:
        if not isinstance(l, int) or isinstance(l, bool):
            raise TypeError("spectrum entries must be ints, got %r" % (l,))
    if len(ls) != len(ds):
        return False
    if len(set(ls)) != len(ls):
        return False
    good = good_differences(scale, ds)
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            if (ls[j] - ls[i]) % n not in good:
                return False
    return True


@dataclass(frozen=True)
class AdmissiblePair:
    """A scale, a digit set, and optionally a verified integer spectrum.

    The scale keeps its sign; only its magnitude matters for
    admissibility, but the sign changes the measures built downstream.
    Constructing a pair with a spectrum that fails the exact unitarity
    test raises ValueError.
    """

    scale: int
    digits: tuple
    spectrum: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "scale", _validated_scale(self.scale))
        object.__setattr__(self, "digits", _validated_digits(self.digits))
        if self.spectrum is not None:
            ls = tuple(sorted(self.spectrum))
            object.__setattr__(self, "spectrum", ls)
            if not is_admissible(self.scale, self.digits, ls):
                raise ValueError(
                    "spectrum %r is not a spectrum of digits %r at scale %r"
                    % (ls, self.digits, self.scale)
                )

    @property
    def modulus(self) -> int:
        return abs(self.scale)

    @property
    def size(self) -> int:
        return len(self.digits)

    def matrix(self) -> np.ndarray:
        """The normalized exponential matrix, rows by digit, columns by
        spectrum point.  Exactly unitary in exact arithmetic; this is
        the floating point image of it."""
        if self.spectrum is None:
            raise ValueError("pair has no spectrum attached")
        b = np.array(self.digits, dtype=float).reshape(-1, 1)
        l = np.array(self.spectrum, dtype=float).reshape(1, -1)
        z = np.exp(-2j * np.pi * b * l / float(self.scale))
        return z / math.sqrt(self.size)

    def unitarity_residual(self) -> float:
        """Max abs entry of M* M - I for the floating point matrix."""
        m = self.matrix()
        r = m.conj().T @ m - np.eye(self.size)
        return float(np.max(np.abs(r)))

    def to_json(self) -> dict:
        out = {"n": self.scale, "b": list(self.digits)}
        if self.spectrum is not None:
            out["l"] = list(self.spectrum)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AdmissiblePair":
        if "n" not in data or "b" not in data:
            raise ValueError("pair object needs keys 'n' and 'b': %r" % (data,))
        return cls(data["n"], tuple(data["b"]), tuple(data["l"]) if "l" in data else None)


def _cliques(scale: int, digits, limit: int):
    """Spectra of the pair inside {0, ..., |scale|-1} that contain 0,
    in increasing order.

    A clique of the good-difference graph grows from {0} by intersecting
    the compatibility masks of its members, lowest candidate bit first,
    so the cliques come out sorted without a sort.
    """
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    if n > limit:
        raise ValueError("scale %r exceeds the enumeration limit %r" % (scale, limit))
    k = len(ds)
    good = good_differences(n, ds)
    compat = [sum(1 << w for w in range(n) if (w - v) % n in good) for v in range(n)]

    def walk(clique, cand):
        # stop once too few candidates are left to fill the clique
        while cand.bit_count() >= k - len(clique):
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if len(clique) == k - 1:
                yield clique + (v,)
            else:
                yield from walk(clique + (v,), cand & compat[v])

    yield from walk((0,), compat[0])


def find_spectra(scale: int, digits, limit: int = FIND_SPECTRA_SCALE_LIMIT) -> tuple:
    """All spectra contained in {0, ..., |scale|-1} that contain 0.

    Every spectrum is congruent mod scale to one with entries in the
    canonical residue range, and translating a spectrum by an integer
    gives another spectrum, so this anchored list is a complete set of
    representatives.  The list is in increasing lexicographic order, so
    its first entry is what ``first_spectrum`` returns.  Enumeration
    walks cliques of the good-difference graph and is refused for |scale|
    above ``limit``.
    """
    return tuple(_cliques(scale, digits, limit))


def first_spectrum(scale: int, digits,
                   limit: int = FIND_SPECTRA_SCALE_LIMIT) -> Optional[tuple]:
    """The first spectrum ``find_spectra`` would list, or None when there
    is none; the walk stops at the first clique."""
    return next(_cliques(scale, digits, limit), None)


def transform_pair(pair: AdmissiblePair, kind: str, value: int) -> AdmissiblePair:
    """Rebuild a pair under one of the three spectrum-preserving moves.

    ``translate`` by an integer b sends the digits to B - b and keeps
    the spectrum.  ``divide`` by a divisor d of gcd(B) sends the digits
    to B/d and the spectrum to d L.  ``scale`` by a nonzero integer t
    sends the scale to t N and the spectrum to t L.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("transform value must be an int, got %r" % (value,))
    if kind == "translate":
        return AdmissiblePair(
            pair.scale,
            tuple(b - value for b in pair.digits),
            pair.spectrum,
        )
    if kind == "divide":
        g = math.gcd(*pair.digits)
        if value <= 0 or g == 0 or g % value != 0:
            raise ValueError(
                "divide value %r must be a positive divisor of gcd(digits) = %r"
                % (value, g)
            )
        return AdmissiblePair(
            pair.scale,
            tuple(b // value for b in pair.digits),
            None if pair.spectrum is None else tuple(value * l for l in pair.spectrum),
        )
    if kind == "scale":
        if value == 0:
            raise ValueError("scale value must be nonzero")
        return AdmissiblePair(
            value * pair.scale,
            pair.digits,
            None if pair.spectrum is None else tuple(value * l for l in pair.spectrum),
        )
    raise ValueError("unknown transform kind %r" % (kind,))


def normalize_pair(pair: AdmissiblePair):
    """Translate the digits to start at 0 and divide out their gcd.

    Returns the normalized pair together with the affine map T such
    that the infinite self-similar measure of the original pair is the
    image under T of the one built from the normalized pair.  The
    spectrum, when present, rides along as d L, so spectra of the
    original measure are spectra of the normalized one shrunk by 1/d.
    """
    b0 = pair.digits[0]
    shifted = tuple(b - b0 for b in pair.digits)
    d = math.gcd(*shifted)
    normalized = AdmissiblePair(
        pair.scale,
        tuple(b // d for b in shifted),
        None if pair.spectrum is None else tuple(d * l for l in pair.spectrum),
    )
    carry = AffineMap(Fraction(d), Fraction(b0, pair.scale - 1))
    return normalized, carry
