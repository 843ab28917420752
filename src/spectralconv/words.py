"""Symbolic infinite words over a finite letter alphabet.

A word is a finite explicit prefix plus a tail rule.  Tail rules are the
reason verdicts about infinite behaviour can be exact: "letter 1 occurs
infinitely often" is decidable from the rule itself (a periodic pattern
either contains the letter or not, a Bernoulli rule gives it positive
probability or not, the all-finite-words enumeration contains everything).
Sampled Bernoulli symbols come from a counter-based generator, so the
symbol at any index is a pure function of (seed, index) and words are
reproducible across platforms and processes.

Letters are 1-based: a word over m letters uses symbols 1..m.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

from .measures import JsonRecord, frac_str, parse_frac, parse_int

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea, Flood; also used by Java's
# SplittableRandom).  The generator is stateless: draw(i) finalizes
# seed + (i+1)*GOLDEN.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK_DRAWS = 1 << 16  # draws per block of `monte_carlo_spectrality`'s sweep


def splitmix64(seed: int, index: int) -> int:
    """64-bit draw number `index` (0-based) of the stream with this seed."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class BernoulliSpec:
    """IID letter distribution with exact rational probabilities."""

    probs: tuple[Fraction, ...]
    seed: int = 0
    # ceil((p_1 + ... + p_j) * 2^64) for each j: a draw r/2^64 is below
    # that partial sum exactly when r is below its bound
    _bounds: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if any(p < 0 for p in probs) or sum(probs) != 1:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        object.__setattr__(self, "_bounds", tuple(
            -((-acc.numerator << 64) // acc.denominator) for acc in accumulate(probs)))

    def symbol(self, index: int) -> int:
        """Letter at 0-based index: the first j whose partial sum exceeds
        the draw r/2^64, found exactly among the integer bounds."""
        return bisect_right(self._bounds, splitmix64(self.seed, index)) + 1


@dataclass(frozen=True)
class PeriodicTail:
    pattern: tuple[int, ...]

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("periodic pattern must be nonempty")

    def symbol(self, i: int) -> int:  # 1-based index into the tail
        return self.pattern[(i - 1) % len(self.pattern)]

    def shifted(self, n: int) -> "PeriodicTail":
        k = n % len(self.pattern)
        return PeriodicTail(self.pattern[k:] + self.pattern[:k])

    def recurring_letters(self) -> frozenset[int]:
        return frozenset(self.pattern)

    def to_json(self) -> dict:
        return {"periodic": list(self.pattern)}


@dataclass(frozen=True)
class BernoulliTail:
    """IID tail.  The designator semantics are the almost-sure ones: every
    letter with positive probability recurs, and so does every finite
    pattern built from such letters."""

    spec: BernoulliSpec
    offset: int = 0

    def symbol(self, i: int) -> int:
        return self.spec.symbol(self.offset + i - 1)

    def shifted(self, n: int) -> "BernoulliTail":
        return BernoulliTail(self.spec, self.offset + n)

    def recurring_letters(self) -> frozenset[int]:
        return frozenset(j for j, p in enumerate(self.spec.probs, start=1) if p > 0)

    def to_json(self) -> dict:
        return {
            "bernoulli": {
                "seed": self.spec.seed,
                "p": [frac_str(p) for p in self.spec.probs],
                "offset": self.offset,
            }
        }


@dataclass(frozen=True)
class EnumerationTail:
    """Concatenation of every finite word over 1..m in length-then-lex order:
    1, 2, ..., m, 11, 12, ...  Every finite pattern occurs, so every letter
    recurs."""

    m: int
    offset: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("alphabet size must be positive")

    def symbol(self, i: int) -> int:
        idx = self.offset + i - 1  # 0-based global symbol index
        length = 1
        block = self.m  # number of words of this length
        while idx >= length * block:
            idx -= length * block
            length += 1
            block *= self.m
        word_no, pos = divmod(idx, length)
        # digit `pos` (most significant first) of word_no in base m
        shift = length - 1 - pos
        digit = (word_no // (self.m**shift)) % self.m
        return digit + 1

    def shifted(self, n: int) -> "EnumerationTail":
        return EnumerationTail(self.m, self.offset + n)

    def recurring_letters(self) -> frozenset[int]:
        return frozenset(range(1, self.m + 1))

    def to_json(self) -> dict:
        return {"enumerate": self.m, "offset": self.offset}


TailRule = PeriodicTail | BernoulliTail | EnumerationTail


def tail_from_json(data: dict) -> TailRule:
    if not isinstance(data, dict):
        raise ValueError("tail rule must be a JSON object")
    if "periodic" in data:
        return PeriodicTail(tuple(map(parse_int, data["periodic"])))
    if "bernoulli" in data:
        b = data["bernoulli"]
        spec = BernoulliSpec(tuple(parse_frac(p) for p in b["p"]), parse_int(b.get("seed", 0)))
        return BernoulliTail(spec, parse_int(b.get("offset", 0)))
    if "enumerate" in data:
        return EnumerationTail(parse_int(data["enumerate"]), parse_int(data.get("offset", 0)))
    raise ValueError(f"unknown tail rule: {sorted(data)}")


@dataclass(frozen=True)
class SymbolicWord(JsonRecord):
    """Infinite word: explicit prefix, then a tail rule.  1-based indexing."""

    prefix: tuple[int, ...]
    tail: TailRule

    def symbol(self, k: int) -> int:
        if k < 1:
            raise IndexError("word positions are 1-based")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        return self.tail.symbol(k - len(self.prefix))

    def shift(self, n: int) -> "SymbolicWord":
        """Drop the first n letters."""
        if n < 0:
            raise ValueError("shift must be nonnegative")
        if n <= len(self.prefix):
            return SymbolicWord(self.prefix[n:], self.tail)
        return SymbolicWord((), self.tail.shifted(n - len(self.prefix)))

    def recurring_letters(self) -> frozenset[int]:
        return self.tail.recurring_letters()

    def occurring_letters(self) -> frozenset[int]:
        return frozenset(self.prefix) | self.tail.recurring_letters()

    def occurs_infinitely(self, letter: int) -> bool:
        return letter in self.tail.recurring_letters()

    def is_constant(self, letter: int) -> bool:
        """Is the word the constant word `letter` from position 1 on?"""
        if any(p != letter for p in self.prefix):
            return False
        return self.tail.recurring_letters() == frozenset({letter})

    def last_occurrence(self, letter: int) -> int | None:
        """Last position of a letter occurring finitely often; None if the
        letter recurs (no last position) or never occurs."""
        if self.occurs_infinitely(letter):
            return None
        last = None
        for i, p in enumerate(self.prefix, start=1):
            if p == letter:
                last = i
        return last

    @classmethod
    def from_json(cls, data: dict) -> "SymbolicWord":
        if not isinstance(data, dict):
            raise ValueError("word must be a JSON object")
        return cls(tuple(map(parse_int, data.get("prefix", ()))), tail_from_json(data["tail"]))


def _splitmix(seeds, indices: np.ndarray) -> np.ndarray:
    """splitmix64 draws at `indices` of each uint64 seed's stream, one row each."""
    z = seeds[..., None] + (indices + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (z ^ (z >> 30)) * np.uint64(_MIX1)
    z = (z ^ (z >> 27)) * np.uint64(_MIX2)
    return z ^ (z >> 31)


def sample_word(spec: BernoulliSpec, length: int, seeds: np.ndarray | None = None):
    """First `length` letters of the word determined by the seed, as a tuple;
    given a uint64 array of seeds instead, one row of letters per seed.

    The splitmix64 draws 0..length-1 come from one wrapping uint64 sweep,
    and each letter from a search among the bounds below 2^64: a draw is
    below 2^64, so it never reaches a larger bound."""
    streams = np.uint64(spec.seed & _MASK64) if seeds is None else seeds
    bounds = np.array([b for b in spec._bounds if b <= _MASK64], np.uint64)
    letters = np.searchsorted(bounds, _splitmix(streams, np.arange(length, dtype=np.uint64)),
                              side="right") + 1
    return tuple(letters.tolist()) if seeds is None else letters


@dataclass
class MonteCarloSummary:
    trials: int
    length: int
    seed: int
    verdict_counts: dict[str, int]
    pattern: tuple[int, ...]
    pattern_freq: Fraction
    pattern_expected: Fraction

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "length": self.length,
            "seed": self.seed,
            "verdicts": dict(sorted(self.verdict_counts.items())),
            "pattern": list(self.pattern),
            "pattern_freq": frac_str(self.pattern_freq),
            "pattern_freq_float": float(self.pattern_freq),
            "pattern_expected": frac_str(self.pattern_expected),
        }


def monte_carlo_spectrality(
    alphabet,
    probs: Sequence[Union[Fraction, str, int]],
    trials: int,
    length: int,
    seed: int = 0,
    pattern: Sequence[int] | None = None,
) -> MonteCarloSummary:
    """Sample words, decide their spectrality exactly, and tally.

    Trial t samples a prefix with the seed splitmix64(seed, t) and keeps a
    Bernoulli tail with the same stream and offset, so the analyzed word is
    a genuine realization of the process.  Only exact branches run (no Q).
    One verdict stands for every trial: a letter with p = 0 has an empty
    interval of bounds, so the letters occurring in every trial are the
    recurring ones, {j : p_j > 0}, and on a tail that is not periodic
    `spectral_verdict` reads the word only through `occurring_letters`,
    `recurring_letters`, `occurs_infinitely` and `is_constant` (in the
    family, admissibility and gcd rules of `spectrality._RULES`; such a
    tail gets no limit-tail check).  It runs on the first trial's
    realized spec.
    Seeds, prefixes and pattern windows come from numpy sweeps over blocks
    of about 2^16 draws, so memory does not grow with the trial count.
    """
    from .convolution import ConvolutionSpec
    from .spectrality import spectral_verdict, VerdictBudget

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if length < 1:
        raise ValueError("length must be at least 1")
    if not alphabet:
        raise ValueError("spec needs a nonempty alphabet")
    probs = tuple(Fraction(p) for p in probs)
    if len(probs) != len(alphabet):
        raise ValueError("need one probability per alphabet letter")
    if pattern is None:
        pattern = tuple(range(1, len(alphabet) + 1))
    pattern = tuple(pattern)
    expected = Fraction(1)
    for letter in pattern:
        if not 1 <= letter <= len(probs):
            raise ValueError(f"pattern letter {letter} outside 1..{len(probs)}")
        expected *= probs[letter - 1]
    windows = length - len(pattern) + 1
    if not pattern or windows < 1:
        raise ValueError("pattern must be nonempty and no longer than the prefix")

    bspec = BernoulliSpec(probs, splitmix64(seed, 0))
    rows = max(1, _BLOCK_DRAWS // length)
    blocks = (sample_word(bspec, length, _splitmix(
                  np.uint64(seed & _MASK64), np.arange(t, min(t + rows, trials), dtype=np.uint64)))
              for t in range(0, trials, rows))
    block = next(blocks)
    word = SymbolicWord(tuple(block[0].tolist()), BernoulliTail(bspec, offset=length))
    report = spectral_verdict(ConvolutionSpec(tuple(alphabet), word),
                              VerdictBudget(run_q=False))
    hits = 0
    while block is not None:
        match = block[:, :windows] == pattern[0]
        for j, letter in enumerate(pattern[1:], start=1):
            match &= block[:, j : j + windows] == letter
        hits += int(np.count_nonzero(match))
        block = next(blocks, None)
    return MonteCarloSummary(trials, length, seed, {report.verdict: trials}, pattern,
                             Fraction(hits, trials * windows), expected)
