"""Infinite convolution specifications over admissible digit systems.

A specification is a finite alphabet of admissible pairs, an infinite
symbolic word choosing one letter per level, and a rule assigning each
level an integer exponent.  Level k multiplies the running scale by
(letter scale)**exponent and contributes a uniform atomic measure on
its digit set divided by the running scale; the object of study is the
weak limit of the partial convolutions.

Everything downstream needs exact bookkeeping rather than floats:
integer cumulative scales, rational truncations, one-sided support
enclosures for restarted tails, certified transform values, and the
complete rational zero set of the transform inside a window.  All of
that lives here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import floor, gcd, inf, isqrt
from typing import Iterator, Optional, Union

import numpy as np

from .hadamard import AdmissiblePair
from .mask import (
    IrrationalZeroPresent,
    eval_mask,
    mask_zero_set,
    scaled_zero_sets,
    window_zeros,
)
from .measures import (
    TWO_PI_UPPER,
    AtomicMeasure,
    ComplexInterval,
    JsonRecord,
    convolve,
    frac_str,
    int_dtype,
    parse_frac,
    parse_int,
)
from .words import EnumerationTail, PeriodicTail, SymbolicWord

Rational = Union[int, Fraction]

# default word for single-letter specs: the constant word 1
_PERIODIC_ONE = PeriodicTail((1,))

DEFAULT_MAX_DEPTH = 4096

# atoms a truncation level may hold: 2^22 entries, 32 MB as int64
MAX_TRUNCATION_ATOMS = 1 << 22

# levels that tail_sum_interval encloses exactly before the geometric bound
_TAIL_TERMS = 48

class DepthLimitError(RuntimeError):
    """An evaluation would need more convolution levels than allowed."""

    def __init__(self, needed: int, cap: int, detail: Optional[str] = None):
        super().__init__(detail or (
            "evaluation needs about %d levels but the cap is %d "
            "(raise SPECTRAL_MAX_DEPTH)" % (needed, cap)))
        self.needed = needed
        self.cap = cap


def depth_cap() -> int:
    """Effective truncation-depth cap: the SPECTRAL_MAX_DEPTH environment
    variable, else the default."""
    raw = os.environ.get("SPECTRAL_MAX_DEPTH")
    if raw is None:
        return DEFAULT_MAX_DEPTH
    value = int(raw)
    if value < 1:
        raise ValueError("SPECTRAL_MAX_DEPTH must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# exponent rules


def _check_exponent(e) -> int:
    if not isinstance(e, int) or isinstance(e, bool) or e < 1:
        raise ValueError(f"exponents must be integers >= 1, got {e!r}")
    return e


@dataclass(frozen=True)
class PeriodicExponents:
    """The listed `head` exponents first, then `pattern` over and over,
    kept in shortest form so that one sequence is one rule: the pattern is
    cut to its shortest period and a head running into it is folded in.  A
    head before a pattern of several values has no JSON form: refused."""

    pattern: tuple[int, ...]
    head: tuple[int, ...] = ()

    def __post_init__(self):
        pattern, head = tuple(self.pattern), tuple(self.head)
        if not pattern:
            raise ValueError("exponent pattern must be nonempty")
        for v in head + pattern:
            _check_exponent(v)
        while head and head[-1] == pattern[-1]:
            head, pattern = head[:-1], pattern[-1:] + pattern[:-1]
        n = len(pattern)
        pattern = pattern[:next(p for p in range(1, n + 1)
                                if n % p == 0 and pattern[p:] == pattern[:n - p])]
        if head and len(pattern) > 1:
            raise ValueError("listed exponents must be followed by one constant value")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "head", head)

    def exponent(self, k: int) -> int:
        if k <= len(self.head):
            return self.head[k - 1]
        return self.pattern[(k - 1 - len(self.head)) % len(self.pattern)]

    def shifted(self, n: int) -> "PeriodicExponents":
        """Rule seen by the tail that starts after level n."""
        k = max(0, n - len(self.head)) % len(self.pattern)
        return PeriodicExponents(self.pattern[k:] + self.pattern[:k], self.head[n:])

    def bounded(self) -> bool:
        return True

    def minimum(self) -> int:
        """A lower bound on every exponent the rule can produce."""
        return min(self.head + self.pattern)

    def to_json(self) -> dict:
        if self.head:
            return {"list": list(self.head), "then": self.pattern[0]}
        if len(self.pattern) == 1:
            return {"const": self.pattern[0]}
        return {"periodic": list(self.pattern)}


def ConstantExponents(value: int = 1) -> PeriodicExponents:
    """The exponent `value` at every level."""
    return PeriodicExponents((value,))


def ExplicitExponents(values, then: int = 1) -> PeriodicExponents:
    """Listed exponents for the first levels, `then` afterwards."""
    return PeriodicExponents((then,), values)


@dataclass(frozen=True)
class UnboundedExponents:
    """Exponent offset + j at level 2**j, exponent 1 everywhere else.

    The sparse large exponents make a subsequence of restarted tails
    start with an arbitrarily large scale, which is exactly what the
    unbounded-exponent spectrality branch exploits.  `shift` records how
    many leading levels have been consumed by tail restarts.
    """

    offset: int = 1
    shift: int = 0

    def __post_init__(self):
        _check_exponent(self.offset)
        if not isinstance(self.shift, int) or self.shift < 0:
            raise ValueError("shift must be a nonnegative integer")

    def exponent(self, k: int) -> int:
        if k < 1:
            raise IndexError("levels are 1-based")
        m = k + self.shift
        if m & (m - 1) == 0:
            return self.offset + m.bit_length() - 1
        return 1

    def shifted(self, n: int) -> "UnboundedExponents":
        return UnboundedExponents(self.offset, self.shift + n)

    def bounded(self) -> bool:
        return False

    def minimum(self) -> int:
        return 1

    def to_json(self) -> dict:
        out: dict = {"offset": self.offset}
        if self.shift:
            out["shift"] = self.shift
        return {"unbounded": out}


# the exponent applied to the scale of level k (k >= 1)
ExponentRule = PeriodicExponents | UnboundedExponents


def exponents_from_json(data: Optional[dict]) -> ExponentRule:
    if data is None:
        return ConstantExponents(1)
    if not isinstance(data, dict):
        raise ValueError("exponent rule must be a JSON object")
    if "const" in data:
        return ConstantExponents(parse_int(data["const"]))
    if "list" in data:
        return ExplicitExponents(
            tuple(map(parse_int, data["list"])), parse_int(data.get("then", 1))
        )
    if "periodic" in data:
        return PeriodicExponents(tuple(map(parse_int, data["periodic"])))
    if "unbounded" in data:
        u = data["unbounded"] or {}
        if not isinstance(u, dict):
            raise ValueError("unbounded exponent rule must be a JSON object")
        return UnboundedExponents(parse_int(u.get("offset", 1)), parse_int(u.get("shift", 0)))
    raise ValueError(f"unknown exponent rule: {sorted(data)}")


# ---------------------------------------------------------------------------
# the convolution description


@dataclass(frozen=True)
class ConvolutionSpec(JsonRecord):
    """Alphabet of admissible pairs + infinite word + exponent rule."""

    alphabet: tuple[AdmissiblePair, ...]
    word: SymbolicWord
    exponents: ExponentRule = ConstantExponents(1)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if not self.alphabet:
            raise ValueError("spec needs a nonempty alphabet")
        for pair in self.alphabet:
            if not isinstance(pair, AdmissiblePair):
                raise TypeError(f"alphabet entries must be AdmissiblePair, got {pair!r}")
        if not isinstance(self.word, SymbolicWord):
            raise TypeError("word must be a SymbolicWord")
        if not isinstance(self.exponents, ExponentRule):
            raise TypeError("exponents must be an ExponentRule")
        m = len(self.alphabet)
        if isinstance(self.word.tail, EnumerationTail) and self.word.tail.m > m:
            raise ValueError(f"word enumerates more letters than the alphabet's {m}")
        bad = [l for l in self.word.occurring_letters() if not 1 <= l <= m]
        if bad:
            raise ValueError(f"word uses letters {sorted(bad)} outside 1..{m}")

    # -- level accessors

    def pair_at(self, k: int) -> AdmissiblePair:
        return self.alphabet[self.word.symbol(k) - 1]

    def exponent_at(self, k: int) -> int:
        return self.exponents.exponent(k)

    def level_scale(self, k: int) -> int:
        return self.pair_at(k).scale ** self.exponent_at(k)

    def cumulative_scale(self, k: int) -> int:
        """Signed product of the first k level scales; 1 for k = 0.

        Every c_k in the package comes from here.  Prefix products are
        kept per spec, so walking k levels costs k multiplications.
        """
        if k <= 0:
            return 1
        prefix = self.__dict__.setdefault("_prefix_scales", [1])
        n = len(prefix)
        if k >= n:
            c, products = prefix[n - 1], []
            for i in range(n, k + 1):
                c *= self.level_scale(i)
                products.append(c)
            prefix[n:k + 1] = products
        return prefix[k]

    def levels(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Infinite stream of (cumulative scale, digit set), level 1 first."""
        return ((self.cumulative_scale(k), self.pair_at(k).digits) for k in count(1))

    def tail(self, n: int) -> "ConvolutionSpec":
        """Spec of the restarted tail: levels n+1, n+2, ... renumbered from 1.

        The tail is a measure in its own right; its level-k cumulative
        scale is the original c_{n+k} / c_n.
        """
        if n < 0:
            raise ValueError("tail index must be nonnegative")
        if n == 0:
            return self
        return ConvolutionSpec(self.alphabet, self.word.shift(n), self.exponents.shifted(n))

    # -- support bookkeeping

    def max_abs_digit(self) -> int:
        return max(max(abs(b) for b in pair.digits) for pair in self.alphabet)

    def min_level_scale(self) -> int:
        """Lower bound on |level scale| over all levels (>= 2)."""
        return min(pair.modulus for pair in self.alphabet) ** self.exponents.minimum()

    def support_halfwidth(self) -> Fraction:
        """h with the measure supported in [-h, h]: the worst case sum of
        max |digit| / s**k over a geometric lower bound s on level scales."""
        return Fraction(self.max_abs_digit(), self.min_level_scale() - 1)

    def support_bound(self) -> tuple[Fraction, Fraction]:
        h = self.support_halfwidth()
        return -h, h

    def tail_sum_interval(self) -> tuple[Fraction, Fraction]:
        """Exact interval containing the support of this spec's measure.

        The first _TAIL_TERMS levels contribute their exact signed min/max;
        the remainder is enclosed by the geometric worst case.  One-sided
        structure survives: a spec with nonnegative digits and positive
        scales gets a lower endpoint below 0 only by the (tiny) remainder
        term of the last enclosed level.
        """
        lo = hi = Fraction(0)
        for k, (c, digits) in enumerate(self.levels(), start=1):
            dlo, dhi = sorted((Fraction(min(digits), c), Fraction(max(digits), c)))
            lo, hi = lo + dlo, hi + dhi
            if k >= _TAIL_TERMS:
                break
        geo = Fraction(1, abs(c) * (self.min_level_scale() - 1))
        if all(pair.scale > 0 for pair in self.alphabet):
            # every remainder term keeps the sign of its digits, so a
            # one-sided digit range gives a one-sided (often exact-zero)
            # remainder bound instead of a symmetric blowup
            dlo = min(min(pair.digits) for pair in self.alphabet)
            dhi = max(max(pair.digits) for pair in self.alphabet)
            return lo + min(0, dlo) * geo, hi + max(0, dhi) * geo
        rem = self.max_abs_digit() * geo
        return lo - rem, hi + rem

    # -- truncation

    def truncate(self, q: int) -> AtomicMeasure:
        """Exact atomic measure of the first q convolution levels.

        Numerators over |c_k| follow N_k = N_{k-1} * |c_k / c_{k-1}| +
        sign(c_k) * b, one array per level, and equal numerators merge
        after a stable sort.  Each level's arrays are int64 while exact
        bounds on |N_k|, the weight total and |c_k| fit, and hold Python
        ints from the level where one of them passes 2^63.  A level past
        MAX_TRUNCATION_ATOMS atoms is refused before it is built.
        """
        if q < 0:
            raise ValueError("truncation depth must be nonnegative")
        cap = depth_cap()
        if q > cap:
            raise DepthLimitError(q, cap)
        nums, weights = np.zeros(1, np.int64), np.ones(1, np.int64)
        top, total, den = 0, 1, 1  # bounds on |N_k| and on every weight, and |c_k|
        for k, (c, digits) in zip(range(1, q + 1), self.levels()):
            if len(nums) * len(digits) > MAX_TRUNCATION_ATOMS:
                raise DepthLimitError(q, k - 1, "truncation to depth %d needs %d atoms at "
                                      "level %d, past the bound of %d atoms per level"
                                      % (q, len(nums) * len(digits), k, MAX_TRUNCATION_ATOMS))
            signed, step = (digits if c > 0 else tuple(-b for b in digits)), abs(c) // den
            top, total, den = top * step + max(map(abs, digits)), total * len(digits), abs(c)
            dtype = int_dtype(max(top, total, den))
            nums = (nums.astype(dtype, copy=False)[:, None] * step + np.array(signed, dtype)).ravel()
            order = np.argsort(nums, kind="stable")
            nums, weights = nums[order], np.repeat(weights.astype(dtype, copy=False), len(digits))[order]
            starts = np.flatnonzero(np.concatenate(([True], nums[1:] != nums[:-1])))
            nums, weights = nums[starts], np.add.reduceat(weights, starts)
        g, gw = gcd(den, int(np.gcd.reduce(nums))), int(np.gcd.reduce(weights))
        return AtomicMeasure(den // g, tuple((nums // g).tolist()),
                             tuple((weights // gw).tolist()), total // gw)

    def truncate_with_tail(self, q: int) -> tuple[AtomicMeasure, tuple[Fraction, Fraction]]:
        """Depth-q truncation plus an exact enclosure of the dropped tail.

        The full measure is the truncation convolved with a measure
        supported inside the returned interval, so translating the
        returned atoms by the interval gives a closed cover of the
        support of the full measure.
        """
        m = self.truncate(q)
        nlo, nhi = self.tail(q).tail_sum_interval()
        cq = self.cumulative_scale(q)
        return m, tuple(sorted((nlo / cq, nhi / cq)))

    # -- transform

    def transform_zero_at(self, xi: Rational) -> bool:
        """Exact test for a zero of the transform at a rational point.

        The transform is the product over levels of the digit-set masks
        at xi / c_k, and a tail of the product is eventually uniformly
        close to 1, so it vanishes iff some single factor does, among the
        levels that ``scaled_zero_sets`` walks.  At a rational point a
        mask value is a sum of roots of unity whose vanishing the
        cyclotomic layer decides exactly, which makes this test complete
        even for digit sets flagged with irrational zeros (those zeros sit
        at irrational points only).
        """
        x = Fraction(xi)
        levels = scaled_zero_sets(self.levels(), abs(x), _alphabet_zero_gap(self.alphabet))
        return any(zs.contains(x / c) for c, zs in levels)

    def ft_infinite(self, xi, tol: float = 1e-9) -> ComplexInterval:
        """Transform value with a certified radius at most tol.

        Strategy: detect an exact zero first (radius 0); otherwise pick
        the least depth q whose dropped tail, supported within
        max|digit| / (|c_q| (s-1)) of the origin, perturbs the partial
        product by at most tol, and evaluate the q factors exactly at
        rational phases.  Raises DepthLimitError with the needed depth
        when tol demands more levels than the cap allows.
        """
        if not 0 < tol < inf:
            raise ValueError("tolerance must be positive")
        x = Fraction(xi)
        if x == 0:
            return ComplexInterval(complex(1), 0.0)
        if self.transform_zero_at(x):
            return ComplexInterval(complex(0), 0.0)
        cap = depth_cap()
        ax = abs(x)
        smin = self.min_level_scale()
        maxb = self.max_abs_digit()
        # need |c_q| >= 2*pi*|x|*maxb / (tol*(smin-1)); compare exactly
        need = TWO_PI_UPPER * ax * maxb / ((smin - 1) * Fraction(tol))
        q = 0
        while abs(self.cumulative_scale(q)) < need:
            if q >= cap:
                est, cc = q, abs(self.cumulative_scale(q))
                while cc < need:
                    est += 1
                    cc *= smin
                raise DepthLimitError(est, cap)
            q += 1
        value = complex(1)
        for k in range(1, q + 1):
            value *= eval_mask(self.pair_at(k).digits, x / self.cumulative_scale(k))
        cq = abs(self.cumulative_scale(q))
        tail_bound = float(TWO_PI_UPPER * ax * Fraction(maxb, cq * (smin - 1)))
        radius = abs(value) * tail_bound + (q + 4) * 1e-15 * (1.0 + abs(value))
        return ComplexInterval(value, radius)

    # -- serialization

    @classmethod
    def from_json(cls, data: dict) -> "ConvolutionSpec":
        if "alphabet" not in data or not data["alphabet"]:
            raise ValueError("spec needs a nonempty alphabet")
        alphabet = tuple(AdmissiblePair.from_json(entry) for entry in data["alphabet"])
        if "word" in data:
            word = SymbolicWord.from_json(data["word"])
        elif len(alphabet) == 1:
            word = SymbolicWord((), _PERIODIC_ONE)
        else:
            raise ValueError("spec with several letters needs an explicit word")
        return cls(alphabet, word, exponents_from_json(data.get("exponents")))


@lru_cache(maxsize=None)
def _alphabet_zero_gap(alphabet: tuple[AdmissiblePair, ...]) -> Optional[Fraction]:
    """Least |z| over the nonzero rational mask zeros z of every letter,
    computed once per alphabet; None when no letter's mask vanishes at a
    rational point."""
    zero_sets = (mask_zero_set(pair.digits).rational for pair in alphabet)
    return min((zs.min_abs_nonzero() for zs in zero_sets if zs.phases), default=None)


def zero_set_window(spec: ConvolutionSpec, n: int, h: Rational) -> list[Fraction]:
    """All zeros of the restarted tail's transform in [-h, h], exactly.

    The tail after level n has transform equal to the product of masks at
    xi / (c_{n+k} / c_n), so its zero set is the union over k of the
    k-th mask zero set scaled by the restarted cumulative scale.  Only
    finitely many levels reach the window (``scaled_zero_sets``); zero
    sets are symmetric and never hold 0, so [0, h] is listed and mirrored.
    This is where completeness is decided: a letter whose mask also
    vanishes off the rational grid raises IrrationalZeroPresent.
    """
    h = Fraction(h)
    if h <= 0:
        raise ValueError("window halfwidth must be positive")
    tail = spec.tail(n)
    for pair in tail.alphabet:
        irrational = mask_zero_set(pair.digits).irrational
        if irrational:
            raise IrrationalZeroPresent(
                f"digit set {pair.digits} has mask zeros off the rational grid "
                f"(angles ~ {irrational}); the rational part alone is not the whole zero set")
    half = window_zeros(tail.levels(), h, _alphabet_zero_gap(tail.alphabet))
    return [-z for z in reversed(half)] + half


# ---------------------------------------------------------------------------
# the two-letter consecutive/scaled family


@dataclass(frozen=True)
class SpecialFamily:
    """Recognized shape: both letters share the scale stretch * base; one
    digit set is 0..base-1, the other is that times a coprime step."""

    stretch: int
    base: int
    step: int
    consecutive_letter: int
    scaled_letter: int

    def spectral(self, word: SymbolicWord) -> bool:
        """Theorem 1.6: every word is spectral at stretch >= 2.  At stretch
        1 the word is spectral exactly when it is constant on the scaled
        letter or uses the consecutive letter infinitely often; otherwise
        the limit is a density that is not uniform on its support."""
        return (self.stretch >= 2 or word.is_constant(self.scaled_letter)
                or word.occurs_infinitely(self.consecutive_letter))


def detect_special(spec: ConvolutionSpec) -> Optional[SpecialFamily]:
    """Match the two-letter family or return None.

    Requirements: constant exponent 1, exactly two letters with a common
    positive scale s, one digit set {0, ..., N-1} with N dividing s, the
    other {0, p, ..., (N-1)p} with p >= 2 and gcd(N, p) = 1.  The letter
    order is free.
    """
    if spec.exponents != ConstantExponents(1):
        return None
    if len(spec.alphabet) != 2:
        return None
    a, b = spec.alphabet
    if a.scale != b.scale or a.scale < 2:
        return None
    s = a.scale
    for i, j in ((0, 1), (1, 0)):
        cons, scl = spec.alphabet[i], spec.alphabet[j]
        n = len(cons.digits)
        if n < 2 or cons.digits != tuple(range(n)):
            continue
        if len(scl.digits) != n:
            continue
        p = scl.digits[1]
        if p < 2 or scl.digits != tuple(p * d for d in range(n)):
            continue
        if s % n != 0:
            continue
        if gcd(n, p) != 1:
            continue
        return SpecialFamily(
            stretch=s // n,
            base=n,
            step=p,
            consecutive_letter=i + 1,
            scaled_letter=j + 1,
        )
    return None


@dataclass(frozen=True)
class PiecewiseConstantDensity(JsonRecord):
    """Density that is constant between consecutive breakpoints.

    `values[i]` holds on [breakpoints[i], breakpoints[i+1]); the function
    vanishes outside [breakpoints[0], breakpoints[-1]].  Total integral
    must be exactly 1.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    uniform_on_support: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(Fraction(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than values")
        if len(self.values) == 0:
            raise ValueError("density needs at least one piece")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if a >= b:
                raise ValueError("breakpoints must be strictly increasing")
        if any(v < 0 for v in self.values):
            raise ValueError("density values must be nonnegative")
        total = sum(
            v * (b - a)
            for v, a, b in zip(self.values, self.breakpoints, self.breakpoints[1:])
        )
        if total != 1:
            raise ValueError(f"density must integrate to 1, got {total}")
        object.__setattr__(self, "uniform_on_support",
                           len({v for v in self.values if v > 0}) == 1)


def density_consecutive(spec: ConvolutionSpec) -> PiecewiseConstantDensity:
    """Exact limit density for the un-stretched family when the
    consecutive letter eventually stops occurring.

    With stretch 1, every level past the last consecutive occurrence k0
    refines a base-N expansion by multiples of the step p, so the limit
    (dilated by base**k0, which is the natural normalization here) is
    Lebesgue measure smeared over length-p slots anchored at the integer
    set  B = sum over i <= k0 of base**(k0-i) * digits(level i):
    density (1 / (p * #B)) * sum_{b in B} indicator[b, b+p].  The word
    2^infinity degenerates to B = {0}, a single uniform block.
    """
    fam = detect_special(spec)
    if fam is None:
        raise ValueError("spec is outside the two-letter consecutive/scaled family")
    if fam.stretch != 1:
        raise ValueError(
            "closed-form density needs stretch 1 (scale equal to the digit count)"
        )
    if spec.word.occurs_infinitely(fam.consecutive_letter):
        raise ValueError(
            "the consecutive letter recurs forever; the finite-block density "
            "formula does not apply"
        )
    n, p = fam.base, fam.step
    k0 = spec.word.last_occurrence(fam.consecutive_letter) or 0
    block = {0}
    for i in range(1, k0 + 1):
        block = {n * b + d for b in block for d in spec.pair_at(i).digits}
    # coverage sweep of the closed slots [b, b+p]
    events: dict[int, int] = {}
    for b in block:
        events[b] = events.get(b, 0) + 1
        events[b + p] = events.get(b + p, 0) - 1
    points = sorted(events)
    height = Fraction(1, p * len(block))
    breakpoints = [Fraction(points[0])]
    values: list[Fraction] = []
    cover = 0
    for pt, nxt in zip(points, points[1:]):
        cover += events[pt]
        v = cover * height
        if values and values[-1] == v:
            breakpoints[-1] = Fraction(nxt)  # same height: extend the piece
        else:
            values.append(v)
            breakpoints.append(Fraction(nxt))
    return PiecewiseConstantDensity(tuple(breakpoints), tuple(values))


def overlap_mass(spec: ConvolutionSpec, j: int, depth: int) -> Fraction:
    """Exact upper bound on the measure's mass on (its own support + j).

    The depth-q truncation plus the tail enclosure give a closed cover
    of the support, one interval per atom.  Any mass landing in the
    translated cover must come from atoms whose own interval meets it,
    so summing those atoms' weights bounds the overlap from above.  As
    the depth grows the cover tightens and the bound can only shrink.
    """
    if j == 0:
        raise ValueError("overlap with the zero translate is all of the mass")
    m, (tlo, thi) = spec.truncate_with_tail(depth)
    # all cover intervals have the same width, so atom x's interval meets
    # the translated cover iff some atom y has |x - y - j| <= width, that
    # is N_y in [N_x - j*D - reach, N_x - j*D + reach], reach = floor(width*D)
    reach, shift = floor((thi - tlo) * m.den), j * m.den
    nums = np.array(m.nums, int_dtype(max(-m.nums[0], m.nums[-1]) + abs(shift) + reach + 1))
    lo, hi = np.searchsorted(nums, np.stack((nums - shift - reach, nums - shift + reach + 1)))
    return Fraction(sum(compress(m.weights, (lo < hi).tolist())), m.total)


# ---------------------------------------------------------------------------
# sparse insertion constructions


def nearest_multiple(value: Fraction, divisor: int) -> int:
    """Multiple of `divisor` nearest to `value`; ties resolve upward."""
    if divisor < 1:
        raise ValueError("divisor must be positive")
    q, r = divmod(value, divisor)
    if 2 * r >= divisor:
        q += 1
    return int(q) * divisor


def _is_triangular(k: int) -> Optional[int]:
    """Index j with j(j+1)/2 == k, or None."""
    if k < 1:
        return None
    disc = 8 * k + 1
    r = isqrt(disc)
    if r * r != disc:
        return None
    return (r - 1) // 2


@dataclass(frozen=True)
class SparseInsertionSpec:
    """Self-similar levels with rare modified digit sets.

    Level k carries `regular_digits` at scale**k, except at the sparse
    indices k = j(j+1)/2 where the digit set is `fixed_part` plus one
    large inserted digit: the multiple of `divisor` nearest to
    target * scale**j.  Divisibility of the insertion keeps the shared
    spectrum valid at every level, and the gaps between sparse indices
    grow, so along the subsequence of restarts just after an insertion
    the tails converge to a two-component mixture: with weight
    #fixed / (#fixed + 1) the plain self-similar measure, with the
    remaining weight the same measure translated by `target`.
    """

    scale: int
    regular_digits: tuple[int, ...]
    fixed_part: tuple[int, ...]
    target: Fraction
    divisor: int
    spectrum: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "regular_digits", tuple(sorted(self.regular_digits)))
        object.__setattr__(self, "fixed_part", tuple(sorted(self.fixed_part)))
        object.__setattr__(self, "target", Fraction(self.target))
        object.__setattr__(self, "spectrum", tuple(sorted(self.spectrum)))
        if not isinstance(self.scale, int) or self.scale < 2:
            raise ValueError("scale must be an integer >= 2")
        if self.divisor < 1:
            raise ValueError("divisor must be positive")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if len(self.fixed_part) < 1:
            raise ValueError("fixed part must be nonempty")
        # the regular pair must be admissible with the shared spectrum,
        # and so must the first several insertion levels; later ones are
        # validated lazily as they are instantiated
        AdmissiblePair(self.scale, self.regular_digits, self.spectrum)
        for j in range(1, 9):
            self.insertion_pair(j)

    def insertion_digit(self, j: int) -> int:
        if j < 1:
            raise ValueError("insertion indices are 1-based")
        return nearest_multiple(self.target * self.scale**j, self.divisor)

    def insertion_pair(self, j: int) -> AdmissiblePair:
        b = self.insertion_digit(j)
        if b in self.fixed_part:
            raise ValueError(f"insertion digit {b} collides with the fixed part")
        return AdmissiblePair(self.scale, self.fixed_part + (b,), self.spectrum)

    def digits_at(self, k: int) -> tuple[int, ...]:
        j = _is_triangular(k)
        if j is None:
            return self.regular_digits
        return self.insertion_pair(j).digits

    def regular_spec(self) -> ConvolutionSpec:
        pair = AdmissiblePair(self.scale, self.regular_digits, self.spectrum)
        return ConvolutionSpec((pair,), SymbolicWord((), _PERIODIC_ONE))

    def limit_weights(self) -> tuple[Fraction, Fraction]:
        """(plain weight, translated weight) of the limit mixture."""
        size = len(self.fixed_part) + 1
        return Fraction(len(self.fixed_part), size), Fraction(1, size)

    def limit_approximation(
        self, depth: int
    ) -> tuple[AtomicMeasure, tuple[Fraction, Fraction]]:
        """Atoms approximating the limit mixture, plus the shared exact
        tail enclosure: convolving the atoms with anything supported in
        the returned interval dominates the true limit's support."""
        base, tail_iv = self.regular_spec().truncate_with_tail(depth)
        plain, shifted = self.limit_weights()
        mixture = AtomicMeasure.from_pairs(((0, plain), (self.target, shifted)))
        # the two-atom factor first: convolve loops over it outside
        return convolve(mixture, base), tail_iv

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "regular": list(self.regular_digits),
            "fixed": list(self.fixed_part),
            "target": frac_str(self.target),
            "divisor": self.divisor,
            "spectrum": list(self.spectrum),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparseInsertionSpec":
        return cls(
            scale=parse_int(data["scale"]),
            regular_digits=tuple(map(parse_int, data["regular"])),
            fixed_part=tuple(map(parse_int, data["fixed"])),
            target=parse_frac(str(data["target"])),
            divisor=parse_int(data["divisor"]),
            spectrum=tuple(map(parse_int, data["spectrum"])),
        )
