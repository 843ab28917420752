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
from itertools import combinations
from typing import Optional

import numpy as np

from .cyclotomic import divisors, exponent_sum_vanishes
from .measures import parse_int

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
    For gcd(delta, n) = d, n = |scale|, zeta_n^delta is a primitive
    (n/d)-th root of unity; all of those are Galois conjugates, so the sum
    vanishes at one exactly when it vanishes at all.  One exact test per
    divisor d decides the whole class {d k : gcd(k, n/d) = 1}.
    """
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    good = set()
    for d in divisors(n)[:-1]:
        m = n // d
        if exponent_sum_vanishes(m, [b % m for b in ds]):
            good.update(d * k for k in range(1, m) if math.gcd(k, m) == 1)
    return frozenset(good)


def is_admissible(scale: int, digits, spectrum) -> bool:
    """Decide exactly whether ``spectrum`` makes the pair admissible."""
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    ls = tuple(sorted(map(parse_int, spectrum)))
    if len(ls) != len(ds):
        return False
    # the sum at -delta is the conjugate of the one at delta; 0 is a repeated residue
    deltas = {min(d, n - d) for d in ((b - a) % n for a, b in combinations(ls, 2))}
    return 0 not in deltas and all(
        exponent_sum_vanishes(n, [(b * d) % n for b in ds]) for d in deltas)


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
            ls = tuple(sorted(map(parse_int, self.spectrum)))
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
        """A pair object; a missing or null "l" attaches no spectrum."""
        if not isinstance(data, dict) or "n" not in data or "b" not in data:
            raise ValueError("pair object needs keys 'n' and 'b': %r" % (data,))
        spectrum = data.get("l")
        return cls(data["n"], tuple(data["b"]), None if spectrum is None else tuple(spectrum))


def _enumerable(scale: int, digits, limit: int) -> tuple[int, tuple, frozenset]:
    """|scale|, the sorted digits and the good differences of a pair whose
    spectra may be enumerated."""
    n = abs(_validated_scale(scale))
    ds = _validated_digits(digits)
    if n > limit:
        raise ValueError("scale %r exceeds the enumeration limit %r" % (scale, limit))
    return n, ds, good_differences(n, ds)


def spectrum_rows(scale: int, digits, limit: int = FIND_SPECTRA_SCALE_LIMIT) -> np.ndarray:
    """``find_spectra`` as a (count, #digits) matrix of the smallest
    unsigned dtype that holds |scale| - 1, one spectrum per row.

    A level sweep: every partial spectrum carries its candidate row, the
    residues above its last member that differ from each member by a good
    difference.  A level extends each row by each of its candidates, and
    the nonzero cells of the candidate matrix come row-major, so the rows
    stay in lexicographic order without a sort.  Rows left with fewer candidates than they
    still need are dropped.  A child's row is its parent's, less the
    residues up to v, and good at w - v: the good-difference row shifted
    by v.  Row v of a window over that row, padded with |scale| zeros,
    is that shift, so no |scale|-by-|scale| table is built and indexing
    gathers only the rows of the residues the sweep reaches.
    """
    n, ds, good = _enumerable(scale, digits, limit)
    k = len(ds)
    padded = np.zeros(2 * n, dtype=bool)
    padded[[n + d for d in good]] = True
    shifted = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
    rows = np.zeros((1, 1), dtype=np.min_scalar_type(n - 1))
    cand = shifted[[0]]
    for size in range(1, k):
        # take and compress copy whole rows, where fancy indexing goes cell by cell
        parent, v = np.divmod(np.flatnonzero(cand), n)
        rows = np.column_stack((rows.take(parent, axis=0), v.astype(rows.dtype)))
        if size == k - 1:
            break
        cand = cand.take(parent, axis=0) & shifted.take(v, axis=0)
        keep = np.count_nonzero(cand, axis=1) >= k - size - 1
        rows, cand = rows.compress(keep, axis=0), cand.compress(keep, axis=0)
    return rows


def _cliques(scale: int, digits, limit: int):
    """Spectra of the pair inside {0, ..., |scale|-1} that contain 0,
    in increasing order, one by one.

    A clique of the good-difference graph grows from {0} by intersecting
    the compatibility masks of its members, lowest candidate bit first,
    so the cliques come out sorted without a sort.  Every candidate left
    lies above v, so the mask of v is the good-difference mask shifted by
    v, as in ``spectrum_rows``.
    """
    _, ds, good = _enumerable(scale, digits, limit)
    k = len(ds)
    mask = sum(1 << d for d in good)

    def walk(clique, cand):
        # stop once too few candidates are left to fill the clique
        while cand.bit_count() >= k - len(clique):
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if len(clique) == k - 1:
                yield clique + (v,)
            else:
                yield from walk(clique + (v,), cand & (mask << v))

    yield from walk((0,), mask)


def find_spectra(scale: int, digits, limit: int = FIND_SPECTRA_SCALE_LIMIT) -> tuple:
    """All spectra contained in {0, ..., |scale|-1} that contain 0.

    Every spectrum is congruent mod scale to one with entries in the
    canonical residue range, and translating a spectrum by an integer
    gives another spectrum, so this anchored list is a complete set of
    representatives.  The list is in increasing lexicographic order, so
    its first entry is what ``first_spectrum`` returns.  Enumeration
    sweeps cliques of the good-difference graph level by level
    (``spectrum_rows``) and is refused for |scale| above ``limit``.
    """
    rows = spectrum_rows(scale, digits, limit)
    return tuple(zip(*(c.tolist() for c in rows.T)))


def first_spectrum(scale: int, digits,
                   limit: int = FIND_SPECTRA_SCALE_LIMIT) -> Optional[tuple]:
    """The first spectrum ``find_spectra`` would list, or None when there
    is none; the walk stops at the first clique."""
    return next(_cliques(scale, digits, limit), None)
