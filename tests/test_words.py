"""Symbolic words, tail rules, and the desk-scale sampling loop."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectralconv import spectrality, words
from spectralconv.convolution import ConstantExponents, ConvolutionSpec, UnboundedExponents
from spectralconv.hadamard import AdmissiblePair
from spectralconv.spectrality import VerdictBudget, spectral_verdict
from spectralconv.words import (
    BernoulliSpec,
    BernoulliTail,
    EnumerationTail,
    MonteCarloSummary,
    PeriodicTail,
    SymbolicWord,
    monte_carlo_spectrality,
    sample_word,
    splitmix64,
    tail_from_json,
)


def test_counter_rng_is_frozen():
    # regression pin: these exact values must never drift, or every
    # seeded experiment in the package silently changes
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(2026, 5) == 13399792675488815619


def test_counter_rng_depends_on_both_arguments():
    seen = {splitmix64(s, i) for s in range(3) for i in range(50)}
    assert len(seen) == 150


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        BernoulliSpec((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        BernoulliSpec((Fraction(3, 2), Fraction(-1, 2)))


def test_letter_draws_are_deterministic_and_exhaustive():
    spec = BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), seed=9)
    first = [spec.symbol(i) for i in range(200)]
    again = [spec.symbol(i) for i in range(200)]
    assert first == again
    assert set(first) == {1, 2}
    other = [BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), seed=10).symbol(i)
             for i in range(200)]
    assert other != first


def test_degenerate_distribution_draws_one_letter():
    spec = BernoulliSpec((Fraction(0), Fraction(1)), seed=3)
    assert {spec.symbol(i) for i in range(64)} == {2}


def reference_symbol(spec, index):
    """The letter drawn by comparing r/2^64 with each partial sum of the
    probabilities in Fraction arithmetic."""
    r, acc = Fraction(words.splitmix64(spec.seed, index), 1 << 64), Fraction(0)
    for j, p in enumerate(spec.probs, start=1):
        acc += p
        if r < acc:
            return j
    return len(spec.probs)


@pytest.mark.parametrize("probs", [
    ("1/2", "1/2"), ("1/3", "2/3"), ("0", "1/7", "0", "6/7"),
    ("1/5", "0", "0", "4/5", "0"), ("1", "0"), ("1/1000003", "1000002/1000003"),
])
def test_letter_draws_match_the_fraction_reference(probs):
    spec = BernoulliSpec(tuple(Fraction(p) for p in probs), seed=41)
    assert [spec.symbol(i) for i in range(500)] == [
        reference_symbol(spec, i) for i in range(500)]


# (probabilities, draw, letter): 2^63/2^64 = 1/2 is not below the partial
# sum 1/2; floor(2^64/3)/2^64 is just below 1/3, and one more is above it
EDGE_DRAWS = [
    ((Fraction(1, 2), Fraction(1, 2)), 1 << 63, 2),
    ((Fraction(1, 3), Fraction(2, 3)), (1 << 64) // 3, 1),
    ((Fraction(1, 3), Fraction(2, 3)), (1 << 64) // 3 + 1, 2),
]


@pytest.mark.parametrize("probs,draw,letter", EDGE_DRAWS)
def test_a_draw_at_a_partial_sum_is_placed_exactly(monkeypatch, probs, draw, letter):
    monkeypatch.setattr(words, "splitmix64", lambda seed, index: draw)
    spec = BernoulliSpec(probs)
    assert spec.symbol(0) == letter == reference_symbol(spec, 0)


def test_word_indexing_is_one_based():
    w = SymbolicWord((1,), PeriodicTail((2,)))
    assert [w.symbol(k) for k in range(1, 6)] == [1, 2, 2, 2, 2]


def test_shift_drops_the_front():
    w = SymbolicWord((1, 1, 2), PeriodicTail((1, 2)))
    for n in range(5):
        moved = w.shift(n)
        for k in range(1, 10):
            assert moved.symbol(k) == w.symbol(k + n)


def test_shift_composition():
    w = SymbolicWord((2, 1), PeriodicTail((1, 2, 2)))
    for a in range(4):
        for b in range(4):
            left = w.shift(a).shift(b)
            right = w.shift(a + b)
            assert [left.symbol(k) for k in range(1, 12)] == \
                   [right.symbol(k) for k in range(1, 12)]


def test_occurrence_queries_on_mixed_word():
    w = SymbolicWord((1,), PeriodicTail((2,)))
    assert w.occurring_letters() == frozenset({1, 2})
    assert w.recurring_letters() == frozenset({2})
    assert w.occurs_infinitely(2)
    assert not w.occurs_infinitely(1)
    assert w.last_occurrence(1) == 1
    assert w.last_occurrence(2) is None  # recurs: no last position
    assert w.last_occurrence(3) is None
    assert not w.is_constant(2)
    assert SymbolicWord((), PeriodicTail((2,))).is_constant(2)


def test_enumeration_tail_realizes_every_pattern():
    w = SymbolicWord((), EnumerationTail(2, 0))
    prefix = [w.symbol(k) for k in range(1, 17)]
    assert prefix == [1, 2, 1, 1, 1, 2, 2, 1, 2, 2, 1, 1, 1, 1, 1, 2]
    text = "".join(str(s) for s in prefix)
    for pattern in ("1", "2", "12", "21", "22", "11"):
        assert pattern in text
    assert w.recurring_letters() == frozenset({1, 2})
    assert w.occurs_infinitely(1) and w.occurs_infinitely(2)


def test_bernoulli_tail_recurrence_follows_support():
    half = BernoulliTail(BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), 1))
    assert half.recurring_letters() == frozenset({1, 2})
    skewed = BernoulliTail(BernoulliSpec((Fraction(0), Fraction(1)), 1))
    assert skewed.recurring_letters() == frozenset({2})


def test_tail_shift_offsets_bernoulli_draws():
    base = BernoulliTail(BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), 4))
    moved = base.shifted(3)
    assert [moved.symbol(i) for i in range(1, 20)] == \
           [base.symbol(i + 3) for i in range(1, 20)]


def test_tail_json_roundtrip():
    tails = (PeriodicTail((1, 2)),
             EnumerationTail(2, 5),
             BernoulliTail(BernoulliSpec((Fraction(1, 3), Fraction(2, 3)), 7), 2))
    for tail in tails:
        again = tail_from_json(tail.to_json())
        assert [again.symbol(i) for i in range(1, 30)] == \
               [tail.symbol(i) for i in range(1, 30)]


def test_word_json_roundtrip():
    w = SymbolicWord((2, 1), PeriodicTail((1, 2)))
    again = SymbolicWord.from_json(w.to_json())
    assert [again.symbol(k) for k in range(1, 10)] == \
           [w.symbol(k) for k in range(1, 10)]


def test_sample_word_length_and_determinism():
    spec = BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), seed=12)
    w1 = sample_word(spec, 32)
    w2 = sample_word(spec, 32)
    assert len(w1) == 32
    assert w1 == w2


@pytest.mark.parametrize("probs", [
    ("0", "1/3", "2/3"), ("1/4", "0", "3/4"), ("1/3", "2/3", "0"),
    ("1/7", "0", "0", "6/7", "0"), ("0", "1", "0"), ("1", "0"), ("0", "1")])
@pytest.mark.parametrize("seed", [0, 7, -5, 2**64 + 3, splitmix64(7, 199)])
def test_sample_word_matches_symbol_index_by_index(probs, seed):
    """Zero probabilities at the first, a middle and the last letter.  One
    after the partial sums reach 1 puts a bound of 2^64 before the last
    one, which no draw may reach.  The multi-seed form gives one row per
    trial seed, for a trial count that is not a multiple of the rows in
    one block of `monte_carlo_spectrality`."""
    spec = BernoulliSpec(tuple(map(Fraction, probs)), seed)
    assert sample_word(spec, 256) == tuple(spec.symbol(i) for i in range(256))
    seeds = [splitmix64(seed, t) for t in range(7)]
    assert (words._BLOCK_DRAWS // 256) % 7
    rows = sample_word(spec, 256, np.array(seeds, np.uint64))
    assert rows.shape == (7, 256)
    for trial_seed, row in zip(seeds, rows.tolist()):
        trial = BernoulliSpec(spec.probs, trial_seed)
        assert row == [trial.symbol(i) for i in range(256)]


# (pairs, probabilities, pattern, exponents, the reason every trial gets).
# In a Bernoulli word the occurring letters are the recurring ones, so the
# gcd branch decides every alphabet past the family and admissibility
# checks: the empty-zero-set and survivor alphabets end there too.
MC_ALPHABETS = {
    "two-letter family, t = 1": (
        ((2, (0, 1)), (2, (0, 3))), ("1/3", "2/3"), (1, 2), None,
        "special-family-classifier"),
    "two-letter family, t = 2": (
        ((4, (0, 1)), (4, (0, 3))), ("1/2", "1/2"), (2, 2), None,
        "special-family-classifier"),
    "gcd branch": (
        ((4, (0, 2)), (3, (0, 1, 2)), (6, (0, 1, 2))), ("1/4", "1/4", "1/2"),
        (3, 1), None, "tail-difference-gcd"),
    "empty periodic zero set": (
        ((4, (0, 1), (0, 2)), (4, (0, 2), (0, 1))), ("1/2", "1/2"), (1,),
        None, "tail-difference-gcd"),
    "survivor letters": (
        ((2, (0, 1)), (2, (0, 3)), (2, (0, 9))), ("1/3", "1/3", "1/3"),
        (2, 3), None, "tail-difference-gcd"),
    "inadmissible letter": (
        ((4, (0, 2)), (4, (0, 1, 2))), ("1/2", "1/2"), (2, 1, 2), None,
        "pair-admissibility-unknown"),
    "inadmissible letter with p = 0": (
        ((4, (0, 2)), (4, (0, 1, 2))), ("1", "0"), (1, 2), None,
        "tail-difference-gcd"),
    "one letter with positive probability": (
        ((2, (0, 1)), (2, (0, 3))), ("0", "1"), (2, 2, 2), None,
        "special-family-classifier"),
    "unbounded exponents": (
        ((2, (0, 1)), (2, (0, 3)), (2, (0, 9))), ("1/2", "1/4", "1/4"),
        (1,), UnboundedExponents(), "unbounded-exponent-tail-collapse"),
}


@pytest.mark.parametrize("name", sorted(MC_ALPHABETS))
@pytest.mark.parametrize("seed", [-5, 2**64 + 3, 11])
def test_monte_carlo_matches_the_per_trial_reference(monkeypatch, name, seed):
    """Every trial's realized spec, built from `BernoulliSpec.symbol`, gets
    the verdict that `monte_carlo_spectrality` reports for all of them,
    and a plain window count gives its pattern frequency.  Blocks of 64
    draws hold 4 prefixes of 16 letters, so 9 trials end on a partial
    block."""
    pairs, probs, pattern, exponents, reason = MC_ALPHABETS[name]
    alphabet = tuple(AdmissiblePair(*pair) for pair in pairs)
    probs = tuple(map(Fraction, probs))
    trials, length = 9, 16
    monkeypatch.setattr(words, "_BLOCK_DRAWS", 64)
    summary = monte_carlo_spectrality(alphabet, probs, trials, length, seed,
                                      exponents, pattern)
    counts, hits = {}, 0
    for t in range(trials):
        bspec = BernoulliSpec(probs, splitmix64(seed, t))
        prefix = tuple(bspec.symbol(i) for i in range(length))
        word = SymbolicWord(prefix, BernoulliTail(bspec, offset=length))
        report = spectral_verdict(
            ConvolutionSpec(alphabet, word, exponents or ConstantExponents(1)),
            VerdictBudget(run_q=False))
        assert report.reason == reason
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        hits += sum(prefix[i:i + len(pattern)] == pattern
                    for i in range(length - len(pattern) + 1))
    assert summary.verdict_counts == counts
    assert summary.pattern_freq == Fraction(hits, trials * (length - len(pattern) + 1))


def test_monte_carlo_memory_does_not_grow_with_the_trials():
    """500 prefixes of 256 letters already fill two blocks of draws."""
    alphabet = (AdmissiblePair(2, (0, 1), (0, 1)), AdmissiblePair(2, (0, 3), (0, 1)))
    probs = (Fraction(1, 3), Fraction(2, 3))
    peaks = []
    for trials in (500, 50_000):
        monte_carlo_spectrality(alphabet, probs, trials, 256, seed=3)  # warm caches
        tracemalloc.start()
        try:
            monte_carlo_spectrality(alphabet, probs, trials, 256, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 17), peaks


def test_small_monte_carlo_run_is_deterministic():
    from spectralconv.hadamard import AdmissiblePair

    alphabet = (AdmissiblePair(2, (0, 1), (0, 1)),
                AdmissiblePair(2, (0, 3), (0, 1)))
    probs = (Fraction(1, 2), Fraction(1, 2))
    summary = monte_carlo_spectrality(alphabet, probs, trials=20, length=16,
                                      seed=7)
    assert isinstance(summary, MonteCarloSummary)
    assert summary.trials == 20
    assert summary.verdict_counts == {"SpectralCertified": 20}
    assert summary.pattern_expected == Fraction(1, 4)
    assert 0 <= summary.pattern_freq <= 1
    again = monte_carlo_spectrality(alphabet, probs, trials=20, length=16,
                                    seed=7)
    assert again.pattern_freq == summary.pattern_freq
    assert again.to_json() == summary.to_json()


@pytest.mark.parametrize("pairs,probs,pattern,message", [
    (((2, (0, 1), (0, 1)), (2, (0, 3), (0, 1))), ("1/2", "1/2"), (1, 1, 1),
     "pattern must be nonempty and no longer than the prefix"),
    (((2, (0, 1), (0, 1)),), ("1/2", "1/2"), None, "need one probability per alphabet letter"),
    ((), (), None, "spec needs a nonempty alphabet"),
], ids=["pattern longer than the prefix", "too many probabilities", "empty alphabet"])
def test_monte_carlo_checks_its_arguments_before_any_verdict(monkeypatch, pairs, probs,
                                                             pattern, message):
    def no_verdict(*args):
        raise AssertionError("a verdict ran before the arguments were checked")

    monkeypatch.setattr(spectrality, "spectral_verdict", no_verdict)
    alphabet = tuple(AdmissiblePair(*pair) for pair in pairs)
    with pytest.raises(ValueError, match=message):
        monte_carlo_spectrality(alphabet, probs, trials=2, length=2, pattern=pattern)


@pytest.mark.parametrize("letter", [0, 3, -1])
def test_monte_carlo_rejects_pattern_letters_outside_the_alphabet(letter):
    from spectralconv.hadamard import AdmissiblePair

    alphabet = (AdmissiblePair(2, (0, 1), (0, 1)),
                AdmissiblePair(2, (0, 3), (0, 1)))
    probs = (Fraction(1, 4), Fraction(3, 4))
    with pytest.raises(ValueError, match="pattern letter %d outside 1..2" % letter):
        monte_carlo_spectrality(alphabet, probs, trials=2, length=8,
                                pattern=(1, letter))
