"""Spectrality machinery: candidate spectra, the discrete quadratic
functional, integer-zero verdicts, windows, and the top-level verdict."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_word, frac_grid, single_pair_spec
from spectralconv.catalog import (
    mixed_word_spec,
    scale4_spec,
    two_letter_family_spec,
)
from spectralconv.convolution import (
    ConstantExponents,
    ConvolutionSpec,
    PeriodicExponents,
    UnboundedExponents,
    zero_set_window,
)
from spectralconv.hadamard import (
    FIND_SPECTRA_SCALE_LIMIT,
    AdmissiblePair,
    find_spectra,
    first_spectrum,
)
from spectralconv.mask import IrrationalZeroPresent, mask_zero_set
from spectralconv.measures import AtomicMeasure
from spectralconv import spectrality
from spectralconv.spectrality import (
    VerdictBudget,
    candidate_spectrum,
    classify_special,
    iz_finite,
    iz_weak_limit,
    q_exact_discrete,
    q_partial,
    spectral_verdict,
    translate_disjoint_window,
)
from spectralconv.words import (
    BernoulliSpec,
    BernoulliTail,
    PeriodicTail,
    SymbolicWord,
    splitmix64,
)


def one_then_twos():
    return SymbolicWord((1,), PeriodicTail((2,)))


# ---------------------------------------------------------------------------
# candidate spectra

def test_candidate_spectrum_of_the_quarter_spec(jp):
    lam = candidate_spectrum(jp, 2)
    assert lam.elements == (0, 1, 4, 5)
    assert 5 in lam and 2 not in lam


def test_candidate_spectra_nest(jp, mixed17):
    for spec in (jp, mixed17):
        prev: frozenset = frozenset()
        for n in range(1, 7):
            cur = frozenset(candidate_spectrum(spec, n).elements)
            assert prev <= cur
            prev = cur


def test_candidate_spectrum_counts_match_level_sizes(mixed17):
    lam = candidate_spectrum(mixed17, 5)
    assert len(lam.elements) == 2 ** 5


def test_candidate_spectrum_needs_admissible_pairs():
    spec = ConvolutionSpec((AdmissiblePair(3, (0, 2), None),),
                           constant_word(1), ConstantExponents(1))
    with pytest.raises(ValueError):
        candidate_spectrum(spec, 2)


# ---------------------------------------------------------------------------
# the discrete quadratic functional

def test_exact_functional_is_one_for_admissible_pairs():
    assert abs(q_exact_discrete(4, (0, 2), (0, 1), Fraction(1, 3)) - 1) < 1e-10
    assert abs(q_exact_discrete(4, (0, 2), (0, 1), 0.37) - 1) < 1e-10
    assert abs(q_exact_discrete(2, (0, 3), (0, 1), Fraction(5, 7)) - 1) < 1e-10


def test_exact_functional_sees_through_digit_scaling():
    """Doubling the digits and halving the spectrum rescales xi."""
    for seed in range(12):
        num = splitmix64(60, seed) % 97
        xi = Fraction(num, 97)
        a = q_exact_discrete(4, (0, 2), (0, 1), xi)
        b = q_exact_discrete(4, (0, 1), (0, 2), 2 * xi)
        assert abs(a - b) < 1e-10


def test_partial_functional_on_the_quarter_spec(jp):
    r8 = q_partial(jp, 8, frac_grid(16))
    assert abs(r8.min_q - 0.9998999773522198) < 1e-9
    assert r8.tail_radius < 1e-9
    assert r8.max_q <= 1 + 1e-9
    r12 = q_partial(jp, 12, frac_grid(16))
    assert abs(r12.min_q - 0.9999993428158269) < 1e-9
    assert r12.min_q >= r8.min_q - 1e-9


def test_point_blocks_do_not_change_the_report(jp, monkeypatch):
    """Also on the pruning path (base 6 under a budget of 4 atoms, so the
    levels after the first prune take the per-entry kernel) and on tail
    levels (a digit span of 30 runs several past the tree)."""
    base6 = ConvolutionSpec((AdmissiblePair(6, (0, 1, 2), (0, 2, 4)),),
                            SymbolicWord((), PeriodicTail((1,))), ConstantExponents(1))
    wide = ConvolutionSpec((AdmissiblePair(4, (0, 30), (0, 1)),),
                           SymbolicWord((), PeriodicTail((1,))), ConstantExponents(1))
    runs = [(jp, 8, {}), (base6, 3, {"budget_atoms": 4}), (wide, 4, {})]
    grid = frac_grid(16, -2, 2)
    wholes = [q_partial(spec, n, grid, **options) for spec, n, options in runs]
    whole = q_partial(jp, 8, frac_grid(16))
    sizes = []
    block = spectrality._q_partial_block
    monkeypatch.setattr(spectrality, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(spectrality, "_q_partial_block",
                        lambda *args: sizes.append(len(args[2])) or block(*args))
    assert q_partial(jp, 8, frac_grid(16)) == whole
    assert sizes == [1] * 16
    for (spec, n, options), report in zip(runs, wholes):
        assert q_partial(spec, n, grid, **options) == report


def test_partial_functional_empty_grid(jp):
    with pytest.raises(ValueError, match="grid must be nonempty"):
        q_partial(jp, 4, [])


def test_partial_functional_prunes_soundly_under_a_tight_budget(jp):
    """Pruned mass widens the enclosure instead of biasing the value."""
    full = q_partial(jp, 10, frac_grid(8))
    tight = q_partial(jp, 10, frac_grid(8), budget_atoms=64)
    for qf, rf, qt, rt in zip(full.q_values, full.radii,
                              tight.q_values, tight.radii):
        assert abs(qf - qt) <= rf + rt + 1e-12
        assert rt >= rf - 1e-12


def test_q_report_serializes(jp):
    r = q_partial(jp, 6, frac_grid(8))
    data = r.to_json()
    assert data["depth"] == 6
    assert len(data["q_values"]) == len(data["grid"]) == 8
    assert data["min_q"] == r.min_q


# ---------------------------------------------------------------------------
# integer zeros of finite measures

def test_two_atom_uniform_has_the_half_integer_zero():
    v = iz_finite(AtomicMeasure.uniform((0, 1)))
    assert v.kind == "nonempty-witness"
    assert v.witness == Fraction(1, 2)


def test_three_atom_uniform_has_no_integer_zero():
    v = iz_finite(AtomicMeasure.uniform((Fraction(0), Fraction(1, 3), Fraction(2, 3))))
    assert v.kind == "empty-certified"


def test_point_mass_never_vanishes():
    assert iz_finite(AtomicMeasure.point(Fraction(3, 7))).kind == "empty-certified"


def test_unbalanced_two_atom_measure_never_vanishes():
    m = AtomicMeasure.from_pairs(((Fraction(0), Fraction(1, 3)),
                                  (Fraction(1), Fraction(2, 3))))
    assert iz_finite(m).kind == "empty-certified"


def test_non_cyclotomic_roots_leave_the_question_open():
    """Weights (8,8,17,8,8)/49 at j/5: the support polynomial keeps
    unit-circle roots at irrational angles, so the zero set cannot be
    settled by rational phase checks alone."""
    w = [Fraction(8, 49), Fraction(8, 49), Fraction(17, 49),
         Fraction(8, 49), Fraction(8, 49)]
    m = AtomicMeasure.from_pairs((Fraction(j, 5), w[j]) for j in range(5))
    v = iz_finite(m)
    assert v.kind == "undecided"
    assert v.reason.startswith(
        "support polynomial keeps non-cyclotomic unit-circle roots")


def test_exhaustive_two_atom_sweep_finds_one_zero_pattern():
    hits = []
    for p in range(1, 7):
        for a in range(p):
            for b in range(a + 1, p + 1):
                v = iz_finite(AtomicMeasure.uniform((Fraction(a, p), Fraction(b, p))))
                if v.kind == "nonempty-witness":
                    hits.append((Fraction(a, p), Fraction(b, p), v.witness))
    # only unit spacing survives: consecutive translates of any other
    # candidate land on phases of opposite parity
    assert set(hits) == {(Fraction(0), Fraction(1), Fraction(1, 2))}


# ---------------------------------------------------------------------------
# integer zeros of weak limits

def test_mixed_word_limit_has_no_integer_zeros(mixed17):
    v = iz_weak_limit(mixed17, horizon=64)
    assert v.kind == "empty-certified"
    assert "2/3 dies at translate +1" in v.reason


def test_pure_scaled_word_is_only_horizon_clear():
    """Every translate 1/3 + k = (1 + 3k)/3 is a zero of (2, {0,3})^inf, at
    level v2(1 + 3k) + 1, so no finite residue cover exists; the closed set
    {1/3, 2/3} decides it."""
    spec = ConvolutionSpec(
        (AdmissiblePair(2, (0, 1), (0, 1)), AdmissiblePair(2, (0, 3), (0, 1))),
        constant_word(2), ConstantExponents(1))
    v = iz_weak_limit(spec, horizon=64)
    assert v.kind == "nonempty-witness" and v.horizon is None
    assert v.witness == Fraction(1, 3)
    assert v.reason.startswith(
        "all translates of 1/3 are zeros: the nodes {1/3, 2/3} at tail 0 "
        "are closed under x -> frac((x + r)/s)")
    assert all(spec.transform_zero_at(Fraction(1, 3) + k)
               for k in range(-200, 201))


def witness_spec():
    """(4, {0,4}) once, then (4, {0,1,2,3}) forever: the first mask
    vanishes at (1/2 + r)/4 for every r mod 4."""
    return ConvolutionSpec(
        (AdmissiblePair(4, (0, 4), None),
         AdmissiblePair(4, (0, 1, 2, 3), (0, 1, 2, 3))),
        one_then_twos(), ConstantExponents(1))


def test_witness_spec_has_a_certified_integer_zero():
    v = iz_weak_limit(witness_spec(), horizon=64)
    assert v.kind == "nonempty-witness"
    assert v.witness == Fraction(1, 2)
    assert v.reason.startswith("all translates of 1/2 are zeros: the nodes "
                               "{1/2} at tail 0 are closed")


def three_level_witness_spec():
    """(3, {0,2,4}) twice, then (2, {1,3}) forever: no single level covers
    every residue of 1/2, the first three together do modulo 18."""
    return ConvolutionSpec(
        (AdmissiblePair(3, (0, 2, 4), (0, 1, 2)), AdmissiblePair(2, (1, 3), None)),
        SymbolicWord((1, 1), PeriodicTail((2,))), ConstantExponents(1))


def test_three_level_witness_needs_every_level_of_the_cover():
    v = iz_weak_limit(three_level_witness_spec(), horizon=64)
    assert v.kind == "nonempty-witness"
    assert v.witness == Fraction(1, 2)
    assert v.reason.startswith(
        "all translates of 1/2 are zeros: the nodes {1/2} at tail 0, "
        "{1/2} at tail 1, {1/2} at tail 2 are closed")


@pytest.mark.parametrize("spec, members", [
    (witness_spec(), [Fraction(1, 2)]),
    (ConvolutionSpec(
        (AdmissiblePair(2, (0, 1), (0, 1)), AdmissiblePair(2, (0, 3), (0, 1))),
        constant_word(2), ConstantExponents(1)),
     [Fraction(1, 3), Fraction(2, 3)]),
    (three_level_witness_spec(), [Fraction(1, 2)]),
], ids=["one-level-cover", "two-adic", "three-level-cover"])
def test_fixed_point_decides_the_cover_specs(spec, members):
    """The specs of the former residue-cover sieve: the smallest member is
    the witness at every horizon, and every candidate outside the members
    has a nonzero translate."""
    for horizon in (1, 64):
        v = iz_weak_limit(spec, horizon=horizon)
        assert (v.kind, v.witness) == ("nonempty-witness", members[0])
    candidates = [z for z in zero_set_window(spec, 0, 1) if 0 < z < 1]
    for f in candidates:
        zeros = [spec.transform_zero_at(f + k) for k in range(-64, 65)]
        assert all(zeros) == (f in members)


@st.composite
def small_specs(draw):
    """Eventually periodic or Bernoulli specs over 1-3 small pairs, with
    the period C = c_p (p the prefix plus one period of word and
    exponents; two tail levels for a Bernoulli tail) at most 32."""
    m = draw(st.integers(1, 3))
    alphabet = tuple(
        AdmissiblePair(draw(st.sampled_from((2, 3, 4, -2, -3, -4))),
                       tuple(sorted(draw(st.sets(st.integers(0, 9),
                                                 min_size=2, max_size=3)))))
        for _ in range(m))
    letters = st.integers(1, m)
    prefix = tuple(draw(st.lists(letters, max_size=1)))
    exponents = draw(st.sampled_from(
        (ConstantExponents(1), ConstantExponents(2), PeriodicExponents((1, 2)))))
    if draw(st.booleans()):
        pattern = tuple(draw(st.lists(letters, min_size=1, max_size=2)))
        tail, period = PeriodicTail(pattern), lcm(len(pattern), len(getattr(
            exponents, "pattern", (1,))))
    else:
        weights = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
        tail = BernoulliTail(BernoulliSpec(
            tuple(Fraction(w, sum(weights)) for w in weights),
            draw(st.integers(0, 99))))
        period = 2
    spec = ConvolutionSpec(alphabet, SymbolicWord(prefix, tail), exponents)
    c = abs(spec.cumulative_scale(len(prefix) + period))
    return spec, c


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_fixed_point_certificates_hold_on_random_specs(drawn):
    """Members have every translate within +-C^2 a zero, and a removed
    candidate xi is no zero at xi + k for its stated k."""
    spec, c = drawn
    v = iz_weak_limit(spec, horizon=16)
    periodic = isinstance(spec.word.tail, PeriodicTail)
    assert v.kind != "empty-up-to-horizon" or not periodic
    if v.kind == "nonempty-witness":
        roots = re.search(r"the nodes \{([^}]*)\} at tail 0\b", v.reason)
        members = [Fraction(x) for x in roots.group(1).split(", ")]
        assert members[0] == v.witness
        for f in members:
            assert all(spec.transform_zero_at(f + k)
                       for k in range(-c * c, c * c + 1))
    for f, k in re.findall(r"(\S+) dies at translate ([+-]\d+)", v.reason):
        assert spec.transform_zero_at(Fraction(f))
        assert not spec.transform_zero_at(Fraction(f) + int(k))


@given(small_specs(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_windows_match_the_pointwise_zero_test(drawn, n):
    """Every zero of a restarted tail lies on (1/L)Z, L the lcm of the
    alphabet's zero-set denominators, so the window over [-2, 2] is the
    list of those m/L at which transform_zero_at holds."""
    spec, _ = drawn
    try:
        window = zero_set_window(spec, n, 2)
    except IrrationalZeroPresent:
        return
    den = lcm(*(mask_zero_set(pair.digits).rational.den for pair in spec.alphabet))
    tail = spec.tail(n)
    assert window == [Fraction(m, den) for m in range(-2 * den, 2 * den + 1)
                      if tail.transform_zero_at(Fraction(m, den))]


def test_iz_reads_one_window_per_tail_state(monkeypatch):
    """The (2 3)^inf survivor limit has two tail states: one window each,
    and no pointwise zero test."""
    spec = ConvolutionSpec.from_json({
        "alphabet": [{"n": 2, "b": [0, 1]}, {"n": 2, "b": [0, 9]},
                     {"n": 2, "b": [0, 15]}],
        "word": {"prefix": [], "tail": {"periodic": [2, 3]}}})
    windows = []

    def counted(tail, n, h):
        windows.append(tail)
        return zero_set_window(tail, n, h)

    def forbidden(self, xi):
        raise AssertionError("iz_weak_limit tested a point on its own")

    monkeypatch.setattr(spectrality, "zero_set_window", counted)
    monkeypatch.setattr(ConvolutionSpec, "transform_zero_at", forbidden)
    verdict = iz_weak_limit(spec, horizon=64)
    assert (verdict.kind, verdict.witness) == ("nonempty-witness", Fraction(1, 3))
    assert windows == [spec, spec.tail(1)]


def test_finite_measure_dispatch(mixed17):
    v = iz_weak_limit(AtomicMeasure.uniform((0, 1)))
    assert v.kind == "nonempty-witness" and v.witness == Fraction(1, 2)


# ---------------------------------------------------------------------------
# window certificates

def _two_atom_approx():
    return AtomicMeasure.from_pairs(((Fraction(0), Fraction(1, 3)),
                                     (Fraction(7, 10), Fraction(2, 3))))


def test_window_certificate_accepts_a_clear_window():
    cert = translate_disjoint_window(
        _two_atom_approx(), (Fraction(0), Fraction(1, 20)),
        (Fraction(-1, 10), Fraction(1, 10)))
    assert cert.ok
    assert cert.mass_lower == Fraction(1, 3)
    assert cert.blocking == ()
    assert cert.reason.startswith("mass at least 1/3 inside the window")


def test_window_certificate_rejects_an_overlapping_window():
    cert = translate_disjoint_window(
        _two_atom_approx(), (Fraction(0), Fraction(1, 20)),
        (Fraction(-1, 2), Fraction(1, 2)))
    assert not cert.ok
    assert cert.blocking == ((1, Fraction(7, 10)),)
    assert "translate(s) +1" in cert.reason


def test_window_certificate_serializes():
    cert = translate_disjoint_window(
        _two_atom_approx(), (Fraction(0), Fraction(1, 20)),
        (Fraction(-1, 10), Fraction(1, 10)))
    data = cert.to_json()
    assert data["ok"] is True
    assert data["mass_lower"] == "1/3"


# ---------------------------------------------------------------------------
# the two-letter family classifier

def test_classifier_on_the_known_grid():
    for t in (1, 2):
        for word, expected in (
                (constant_word(1), "Spectral"),
                (constant_word(2), "Spectral"),
                (one_then_twos(), "NotSpectral" if t == 1 else "Spectral"),
                (SymbolicWord((), PeriodicTail((1, 2))), "Spectral")):
            assert classify_special(t, 2, 3, word) == expected


def test_classifier_with_swapped_letter_roles():
    word = SymbolicWord((2,), PeriodicTail((1,)))
    assert classify_special(1, 2, 3, word,
                            consecutive_letter=2, scaled_letter=1) == "NotSpectral"


# ---------------------------------------------------------------------------
# the top-level verdict

def test_verdict_mixed_word_is_not_spectral(mixed17):
    rep = spectral_verdict(mixed17)
    assert rep.verdict == "NotSpectralCertified"
    assert rep.reason == "special-family-classifier"
    assert rep.details["family"] == {"stretch": 1, "base": 2, "step": 3}


def test_verdict_quarter_spec_reduces_by_gcd(jp):
    rep = spectral_verdict(jp)
    assert rep.verdict == "SpectralCertified"
    assert rep.reason == "tail-difference-gcd"
    assert rep.details["difference_gcd"] == 2
    assert rep.trace == (
        "no two-letter special family structure",
        "digit differences have gcd 2 at every position; anchoring and "
        "dividing by 2 reduces to the gcd 1 case")


def test_verdict_stretched_family_is_spectral():
    rep = spectral_verdict(two_letter_family_spec(2, 2, 3, constant_word(2)))
    assert rep.verdict == "SpectralCertified"
    assert rep.reason == "special-family-classifier"


def test_verdict_unbounded_exponents_collapse_the_tail(jp):
    spec = ConvolutionSpec(jp.alphabet, jp.word, UnboundedExponents())
    rep = spectral_verdict(spec)
    assert rep.verdict == "SpectralCertified"
    assert rep.reason == "unbounded-exponent-tail-collapse"


def test_verdict_without_spectra_is_inconclusive():
    assert find_spectra(5, (0, 3)) == ()
    rep = spectral_verdict(single_pair_spec(5, (0, 3)))
    assert rep.verdict == "Inconclusive"
    assert rep.reason == "pair-admissibility-unknown"
    assert rep.trace[-1] == ("pair (5, [0, 3]) is not admissible: "
                             "exhaustive search finds no spectrum")


def test_verdict_leaves_admissibility_open_above_the_search_limit():
    scale = FIND_SPECTRA_SCALE_LIMIT + 2
    rep = spectral_verdict(single_pair_spec(scale, (0, 1)))
    assert rep.verdict == "Inconclusive"
    assert rep.reason == "pair-admissibility-unknown"
    assert rep.trace[-1] == ("pair (%d, [0, 1]) has no known spectrum; "
                             "admissibility is open" % scale)


def test_verdict_from_empty_periodic_zero_set():
    spec = ConvolutionSpec(
        (AdmissiblePair(4, (0, 1), (0, 2)), AdmissiblePair(4, (0, 2), (0, 1))),
        one_then_twos(), ConstantExponents(1))
    rep = spectral_verdict(spec)
    assert rep.verdict == "SpectralCertified"
    assert rep.reason == "empty-periodic-zero-set"


def test_verdict_anchors_digits_before_the_gcd():
    rep = spectral_verdict(single_pair_spec(4, (1, 3)))
    assert rep.verdict == "SpectralCertified"
    assert rep.reason == "tail-difference-gcd"
    assert rep.details["difference_gcd"] == 2


def test_verdict_budget_exhaustion_keeps_the_evidence():
    spec = ConvolutionSpec(
        (AdmissiblePair(-2, (0, 1), (0, 1)), AdmissiblePair(2, (0, 3), (0, 1))),
        one_then_twos(), ConstantExponents(1))
    rep = spectral_verdict(spec)
    assert rep.verdict == "Inconclusive"
    assert rep.reason == "budget-exhausted"
    assert rep.iz is not None and rep.iz.kind == "nonempty-witness"
    assert rep.iz.witness == Fraction(1, 3)
    assert rep.q_report is not None
    assert rep.q_report.min_q == pytest.approx(0.10558795811082669)


def test_verdict_budget_can_skip_the_grid():
    spec = ConvolutionSpec(
        (AdmissiblePair(-2, (0, 1), (0, 1)), AdmissiblePair(2, (0, 3), (0, 1))),
        one_then_twos(), ConstantExponents(1))
    rep = spectral_verdict(spec, VerdictBudget(run_q=False))
    assert rep.verdict == "Inconclusive"
    assert rep.q_report is None
    assert rep.trace[-1] == "grid Q skipped by budget"


def census_specs():
    """1,500 specs over the admissible pairs found among 40 draws at each
    of the scales 2, 3, 4, -2, -3, 4, 6, 8 (2-4 digits from 0..12,
    including 0): 2-3 letters, a prefix of 0-3 letters, a periodic tail of
    period 1-2, constant exponent 1."""
    random.seed(11)
    pairs = {}
    for scale in (2, 3, 4, -2, -3, 4, 6, 8):
        for _ in range(40):
            digits = (0,) + tuple(sorted(random.sample(range(1, 13),
                                                       random.randint(1, 3))))
            spectrum = first_spectrum(scale, digits)
            if spectrum is not None:
                pairs.setdefault((scale, digits),
                                 AdmissiblePair(scale, digits, spectrum))
    pairs = list(pairs.values())
    assert len(pairs) == 52
    for _ in range(1500):
        letters = tuple(random.sample(pairs, random.randint(2, 3)))
        prefix = tuple(random.randint(1, len(letters))
                       for _ in range(random.randint(0, 3)))
        tail = tuple(random.randint(1, len(letters))
                     for _ in range(random.randint(1, 2)))
        yield ConvolutionSpec(letters, SymbolicWord(prefix, PeriodicTail(tail)),
                              ConstantExponents(1))


def test_verdict_census_counts_are_pinned():
    """The exact branches' share of a fixed census.  A change that decides
    more specs moves these pins on purpose; one that decides fewer fails."""
    budget = VerdictBudget(run_q=False)
    counts = Counter()
    for spec in census_specs():
        report = spectral_verdict(spec, budget)
        counts[report.verdict, report.reason] += 1
    assert counts == {
        ("SpectralCertified", "tail-difference-gcd"): 1183,
        ("SpectralCertified", "empty-periodic-zero-set"): 181,
        ("SpectralCertified", "special-family-classifier"): 14,
        ("Inconclusive", "budget-exhausted"): 122,
    }


def test_verdict_serializes_with_stable_keys(jp):
    data = spectral_verdict(jp).to_json()
    assert sorted(data) == ["details", "reason", "trace", "verdict"]
    assert data["verdict"] == "SpectralCertified"


def test_budget_defaults():
    b = VerdictBudget()
    assert b.run_q and b.depth == 12 and b.grid == 64
    assert spectrality._EVIDENCE_Q_MIN == 0.999
