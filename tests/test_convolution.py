"""Infinite convolution specs: truncation, transforms, zero windows,
densities, overlap masses, and the sparse insertion construction."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_word, single_pair_spec
from spectralconv.catalog import (
    insertion_target_five_sixths,
    insertion_target_one_half,
    mixed_word_spec,
    scale4_spec,
    two_letter_family_spec,
)
from spectralconv.convolution import (
    ConstantExponents,
    ConvolutionSpec,
    DepthLimitError,
    ExplicitExponents,
    MAX_TRUNCATION_ATOMS,
    PeriodicExponents,
    SparseInsertionSpec,
    _is_triangular,
    UnboundedExponents,
    density_consecutive,
    depth_cap,
    detect_special,
    exponents_from_json,
    nearest_multiple,
    overlap_mass,
    zero_set_window,
)
from spectralconv.hadamard import AdmissiblePair
from spectralconv.measures import AtomicMeasure
from spectralconv.words import (
    BernoulliSpec,
    BernoulliTail,
    EnumerationTail,
    PeriodicTail,
    SymbolicWord,
)


# ---------------------------------------------------------------------------
# exponent rules

def test_constant_exponents():
    e = ConstantExponents(2)
    assert [e.exponent(k) for k in (1, 5, 100)] == [2, 2, 2]
    assert e.bounded() and e.minimum() == 2
    assert e.shifted(7) == e


def test_explicit_exponents_fall_back_after_the_list():
    e = ExplicitExponents((3, 1, 2), then=1)
    assert [e.exponent(k) for k in range(1, 6)] == [3, 1, 2, 1, 1]
    assert e.shifted(2).exponent(1) == 2
    assert e.shifted(3).exponent(1) == 1
    assert e.bounded()


def test_periodic_exponents_cycle():
    e = PeriodicExponents((1, 2))
    assert [e.exponent(k) for k in range(1, 6)] == [1, 2, 1, 2, 1]
    assert e.shifted(1).exponent(1) == 2
    assert e.bounded() and e.minimum() == 1


def test_unbounded_exponents_grow_on_the_binary_ladder():
    e = UnboundedExponents()
    assert [e.exponent(k) for k in range(1, 11)] == [1, 2, 1, 3, 1, 1, 1, 4, 1, 1]
    assert not e.bounded()
    assert e.minimum() == 1


def test_exponent_json_roundtrip():
    rules = (ConstantExponents(1), ExplicitExponents((2, 1), then=3),
             PeriodicExponents((1, 1, 2)), UnboundedExponents())
    for rule in rules:
        again = exponents_from_json(rule.to_json())
        assert [again.exponent(k) for k in range(1, 20)] == \
               [rule.exponent(k) for k in range(1, 20)]


def test_every_spelling_of_one_sequence_is_one_rule():
    """Rules are kept in shortest form: one exponent sequence compares
    equal and prints one JSON form, however it was written."""
    spellings = {
        "2^inf": [ConstantExponents(2), PeriodicExponents((2, 2)),
                  ExplicitExponents((), then=2), ExplicitExponents((2, 2), then=2),
                  exponents_from_json({"periodic": [2, 2, 2]}),
                  exponents_from_json({"list": [2], "then": 2})],
        "(1 2)^inf": [PeriodicExponents((1, 2)), PeriodicExponents((1, 2, 1, 2)),
                      PeriodicExponents((2, 1), head=(1,)),
                      PeriodicExponents((1, 2), head=(1, 2)),
                      PeriodicExponents((2, 1, 2, 1)).shifted(3)],
        "3 1^inf": [ExplicitExponents((3,), then=1),
                    ExplicitExponents((3, 1, 1), then=1),
                    PeriodicExponents((1, 1), head=(3,)),
                    ExplicitExponents((2, 3), then=1).shifted(1)],
    }
    printed = {"2^inf": {"const": 2}, "(1 2)^inf": {"periodic": [1, 2]},
               "3 1^inf": {"list": [3], "then": 1}}
    for name, rules in spellings.items():
        assert all(rule == rules[0] for rule in rules), name
        assert len(set(rules)) == 1, name
        assert all(rule.to_json() == printed[name] for rule in rules), name
        assert exponents_from_json(printed[name]) == rules[0]


def test_a_head_before_a_longer_pattern_is_refused():
    with pytest.raises(ValueError, match="one constant value"):
        PeriodicExponents((1, 2), head=(3,))
    with pytest.raises(ValueError, match="one constant value"):
        PeriodicExponents((2, 1, 2, 1), head=(2, 2))
    with pytest.raises(ValueError, match="nonempty"):
        PeriodicExponents((), head=(1,))
    with pytest.raises(ValueError, match=">= 1"):
        PeriodicExponents((1,), head=(0,))
    # a head that runs into the pattern folds away instead
    assert PeriodicExponents((2, 1), head=(2, 1)) == PeriodicExponents((2, 1))


def test_shifted_uses_up_the_head_then_rotates_the_pattern():
    rule = ExplicitExponents((3, 1, 2), then=4)
    for n in range(8):
        assert [rule.shifted(n).exponent(k) for k in range(1, 9)] == \
               [rule.exponent(n + k) for k in range(1, 9)]
    rule = PeriodicExponents((1, 2, 3))
    assert rule.shifted(4) == PeriodicExponents((2, 3, 1))
    assert rule.shifted(3) == rule


# ---------------------------------------------------------------------------
# the depth cap

def test_depth_cap_default_and_override(monkeypatch):
    monkeypatch.delenv("SPECTRAL_MAX_DEPTH", raising=False)
    assert depth_cap() == 4096
    monkeypatch.setenv("SPECTRAL_MAX_DEPTH", "16")
    assert depth_cap() == 16


def test_truncation_respects_the_cap(monkeypatch):
    monkeypatch.setenv("SPECTRAL_MAX_DEPTH", "16")
    spec = scale4_spec()
    with pytest.raises(DepthLimitError) as info:
        spec.truncate(17)
    assert info.value.needed == 17
    assert info.value.cap == 16
    spec.truncate(16)  # at the cap is fine


def test_truncation_refuses_a_level_past_the_atom_bound():
    """Each level of (4,{0,2}) doubles the atoms, so level 23 would hold
    2^23; the refusal comes before that level is built, and names the
    depth and the atom count rather than the depth cap."""
    with pytest.raises(DepthLimitError) as info:
        scale4_spec().truncate(40)
    assert (info.value.needed, info.value.cap) == (40, 22)
    assert str(info.value) == (
        "truncation to depth 40 needs 8388608 atoms at level 23, past the "
        "bound of 4194304 atoms per level")
    assert MAX_TRUNCATION_ATOMS == 2 ** 22


def test_tiny_tolerance_exhausts_the_depth_budget(monkeypatch):
    monkeypatch.setenv("SPECTRAL_MAX_DEPTH", "16")
    spec = scale4_spec()
    with pytest.raises(DepthLimitError) as raised:
        spec.ft_infinite(Fraction(1, 3), tol=1e-300)
    assert (raised.value.needed, raised.value.cap) == (499, 16)


# ---------------------------------------------------------------------------
# spec structure

def test_level_structure_of_the_quarter_spec(jp):
    assert jp.pair_at(1).digits == (0, 2)
    assert jp.level_scale(1) == 4
    assert jp.cumulative_scale(0) == 1
    assert jp.cumulative_scale(3) == 64
    assert jp.max_abs_digit() == 2
    assert jp.min_level_scale() == 4
    assert jp.support_halfwidth() == Fraction(2, 3)
    assert jp.support_bound() == (Fraction(-2, 3), Fraction(2, 3))


def test_walking_the_levels_computes_each_level_scale_once(jp):
    seen = []
    level_scale = jp.level_scale
    object.__setattr__(jp, "level_scale", lambda k: seen.append(k) or level_scale(k))
    walked = [c for c, _ in islice(jp.levels(), 300)]
    assert walked == [4 ** k for k in range(1, 301)]
    assert jp.cumulative_scale(300) == 4 ** 300
    assert seen == list(range(1, 301))


def test_concurrent_level_walks_see_exact_prefix_products():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            spec = two_letter_family_spec(1, 2, 3, SymbolicWord((), PeriodicTail((1, 2))))
            expected = [2 ** k for k in range(1, 401)]
            with ThreadPoolExecutor(max_workers=6) as pool:
                walks = [pool.submit(lambda: [spec.cumulative_scale(k) for k in range(1, 401)])
                         for _ in range(6)]
                assert all(w.result(timeout=60) == expected for w in walks)
    finally:
        sys.setswitchinterval(previous)


def test_mixed_word_levels(mixed17):
    assert mixed17.pair_at(1).digits == (0, 1)
    assert mixed17.pair_at(2).digits == (0, 3)
    assert mixed17.pair_at(9).digits == (0, 3)
    assert mixed17.cumulative_scale(3) == 8


def test_tail_shifts_word_and_exponents():
    spec = ConvolutionSpec(
        mixed_word_spec().alphabet,
        SymbolicWord((1,), PeriodicTail((2,))),
        ExplicitExponents((2, 1), then=1))
    t = spec.tail(1)
    assert t.pair_at(1).digits == (0, 3)
    assert t.exponent_at(1) == 1
    assert t.word.occurring_letters() == frozenset({2})


_TAIL_ALPHABET = (AdmissiblePair(2, (0, 1)), AdmissiblePair(-3, (0, 2, 10)),
                  AdmissiblePair(4, (0, 2)))


@st.composite
def tail_kind_specs(draw):
    """Specs on 1-3 letters with every tail kind and every exponent rule."""
    m = draw(st.integers(1, 3))
    letters = st.integers(1, m)
    tail = draw(st.one_of(
        st.lists(letters, min_size=1, max_size=3).map(lambda p: PeriodicTail(tuple(p))),
        st.builds(EnumerationTail, st.integers(1, m), st.integers(0, 40)),
        st.builds(lambda seed, offset: BernoulliTail(BernoulliSpec((Fraction(1, m),) * m, seed),
                                                     offset),
                  st.integers(0, 2 ** 32), st.integers(0, 40))))
    exponents = draw(st.one_of(
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda p: PeriodicExponents(tuple(p))),
        st.builds(ExplicitExponents, st.lists(st.integers(1, 3), max_size=3).map(tuple),
                  st.integers(1, 3)),
        st.builds(UnboundedExponents, st.integers(1, 3), st.integers(0, 40))))
    prefix = tuple(draw(st.lists(letters, max_size=4)))
    return ConvolutionSpec(_TAIL_ALPHABET[:m], SymbolicWord(prefix, tail), exponents)


@given(tail_kind_specs(), st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_a_tail_reads_the_spec_from_the_next_level_on(spec, n):
    tail = spec.tail(n)
    for k in range(1, 9):
        assert tail.pair_at(k) == spec.pair_at(n + k)
        assert tail.exponent_at(k) == spec.exponent_at(n + k)
        assert tail.cumulative_scale(k) * spec.cumulative_scale(n) == spec.cumulative_scale(n + k)
    assert ConvolutionSpec.from_json(tail.to_json()) == tail


def test_tail_sum_interval_is_one_sided_for_nonnegative_digits(jp):
    lo, hi = jp.tail_sum_interval()
    assert lo == 0
    assert hi == Fraction(2, 3)


def test_signed_scale_spreads_support():
    spec = single_pair_spec(-4, (0, 2), (0, 1))
    lo, hi = spec.tail_sum_interval()
    assert lo < 0 < hi


# ---------------------------------------------------------------------------
# truncation and the transform

def test_two_level_truncation_atoms(jp):
    m = jp.truncate(2)
    expected = {Fraction(0): Fraction(1, 4),
                Fraction(1, 8): Fraction(1, 4),
                Fraction(1, 2): Fraction(1, 4),
                Fraction(5, 8): Fraction(1, 4)}
    assert dict(m.atoms) == expected


def test_zero_level_truncation_is_a_point(jp):
    m = jp.truncate(0)
    assert m.atoms == ((Fraction(0), Fraction(1)),)


def test_truncation_with_tail_brackets_the_limit(jp):
    m, (lo, hi) = jp.truncate_with_tail(3)
    assert lo == 0
    assert hi == Fraction(2, 3) / 64
    assert sum(w for _, w in m.atoms) == 1


def test_certified_transform_value_is_frozen(jp):
    iv = jp.ft_infinite(Fraction(1, 2))
    assert abs(iv.value - (0.34631445649597403 - 0.5998342337088758j)) < 1e-9
    assert iv.radius < 1e-8
    iv2 = jp.ft_infinite(2)
    assert abs(abs(iv2.value) - 0.6926289126994455) < 1e-6


def test_transform_splits_as_level_times_tail(jp, mixed17):
    """One convolution level peels off as a mask factor."""
    from spectralconv.mask import eval_mask

    for spec in (jp, mixed17):
        for xi in (Fraction(1, 3), Fraction(5, 8), Fraction(7, 2)):
            whole = spec.ft_infinite(xi, tol=1e-10)
            scale = spec.level_scale(1)
            mask = eval_mask(spec.pair_at(1).digits, Fraction(xi, scale))
            rest = spec.tail(1).ft_infinite(Fraction(xi, scale), tol=1e-10)
            assert abs(whole.value - mask * rest.value) < 1e-7


def test_exact_zero_decisions(jp):
    assert jp.transform_zero_at(1)
    assert jp.transform_zero_at(-1)
    assert not jp.transform_zero_at(Fraction(1, 2))
    assert not jp.transform_zero_at(2)


def test_minimum_zero_gap(jp, mixed17):
    assert jp.min_zero_gap() == Fraction(1, 4)
    assert mixed17.min_zero_gap() == Fraction(1, 6)


def test_translate_walk_computes_each_letter_gap_once(monkeypatch):
    from spectralconv import convolution
    from spectralconv.mask import RationalZeroSet
    from spectralconv.spectrality import iz_weak_limit

    spec = ConvolutionSpec.from_json({
        "alphabet": [{"n": 2, "b": [0, 1]}, {"n": 2, "b": [0, 9]},
                     {"n": 2, "b": [0, 15]}],
        "word": {"prefix": [], "tail": {"periodic": [2, 3]}}})
    gaps = []
    original = RationalZeroSet.min_abs_nonzero

    def counted(zeros):
        gaps.append(zeros)
        return original(zeros)

    convolution._alphabet_zero_gap.cache_clear()
    monkeypatch.setattr(RationalZeroSet, "min_abs_nonzero", counted)
    verdict = iz_weak_limit(spec, horizon=64)
    # every node's children are tested against the zero windows of two
    # tail states, and the letter gaps are still computed once
    assert (verdict.kind, verdict.witness) == ("nonempty-witness", Fraction(1, 3))
    assert ("the nodes {1/3, 2/3} at tail 0, {1/3, 2/3} at tail 1 are closed"
            in verdict.reason)
    assert len(gaps) == 3


def test_zero_window_of_the_quarter_spec(jp):
    assert zero_set_window(jp, 0, 2) == [Fraction(-1), Fraction(1)]


def test_zero_window_of_the_mixed_spec(mixed17):
    got = zero_set_window(mixed17, 0, 4)
    positive = [x for x in got if x > 0]
    assert positive == [Fraction(2, 3), Fraction(1), Fraction(4, 3),
                        Fraction(2), Fraction(8, 3), Fraction(3),
                        Fraction(10, 3), Fraction(4)]
    assert sorted(-x for x in got if x < 0) == positive
    assert len(got) == 16


def test_zero_window_respects_the_window(mixed17):
    inner = zero_set_window(mixed17, 0, 1)
    assert inner == [Fraction(-1), Fraction(-2, 3), Fraction(2, 3), Fraction(1)]


# ---------------------------------------------------------------------------
# family detection and densities

def test_family_detection_requires_shared_scale(jp, mixed17):
    assert detect_special(jp) is None
    fam = detect_special(mixed17)
    assert (fam.stretch, fam.base, fam.step) == (1, 2, 3)
    assert (fam.consecutive_letter, fam.scaled_letter) == (1, 2)
    fam2 = detect_special(two_letter_family_spec(2, 2, 3, constant_word(2)))
    assert fam2.stretch == 2


def test_family_detection_rejects_other_digit_sets():
    """Both letters share a scale, but the second set is not a multiple
    p*{0..n-1} of the consecutive one, or the scale is not a multiple of
    the digit count."""
    def spec(*pairs):
        return ConvolutionSpec(tuple(AdmissiblePair(n, b) for n, b in pairs),
                               SymbolicWord((1,), PeriodicTail((2,))))
    assert detect_special(spec((3, (0, 1, 2)), (3, (0, 2, 5)))) is None
    assert detect_special(spec((3, (0, 1)), (3, (0, 5)))) is None
    assert detect_special(spec((4, (0, 1)), (4, (0, 5)))) is not None


def test_density_of_the_mixed_word(mixed17):
    d = density_consecutive(mixed17)
    assert d.breakpoints == (Fraction(0), Fraction(1), Fraction(3), Fraction(4))
    assert d.values == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 6))
    assert not d.uniform_on_support


def test_density_of_the_pure_scaled_word():
    d = density_consecutive(two_letter_family_spec(1, 2, 3, constant_word(2)))
    assert d.breakpoints == (Fraction(0), Fraction(3))
    assert d.values == (Fraction(1, 3),)
    assert d.uniform_on_support


def test_density_merges_neighbouring_pieces_of_equal_height():
    """Prefix 1 1 gives the slots [b, b+3] for b in {0, 1, 2, 3}, covered
    1, 2, 3, 3, 2, 1 times: the two middle unit pieces share a height."""
    d = density_consecutive(two_letter_family_spec(
        1, 2, 3, SymbolicWord((1, 1), PeriodicTail((2,)))))
    assert d.breakpoints == tuple(map(Fraction, (0, 1, 2, 4, 5, 6)))
    assert d.values == tuple(Fraction(v, 12) for v in (1, 2, 3, 2, 1))


def test_density_needs_an_eventually_scaled_word():
    word = SymbolicWord((), BernoulliTail(
        BernoulliSpec((Fraction(1, 2), Fraction(1, 2)), 1)))
    with pytest.raises(ValueError):
        density_consecutive(two_letter_family_spec(1, 2, 3, word))


# ---------------------------------------------------------------------------
# overlap masses

def test_overlap_masses_are_exact_dyadic():
    spec = single_pair_spec(4, (0, 3), (0, 2))
    for q in (4, 8, 12):
        assert overlap_mass(spec, 1, q) == Fraction(1, 2 ** q)
        assert overlap_mass(spec, -1, q) == Fraction(1, 2 ** q)
        assert overlap_mass(spec, 2, q) == 0
        assert overlap_mass(spec, -2, q) == 0
        assert overlap_mass(spec, 3, q) == 0


def test_overlap_at_zero_translate_is_rejected():
    spec = single_pair_spec(4, (0, 3), (0, 2))
    with pytest.raises(ValueError):
        overlap_mass(spec, 0, 4)


# ---------------------------------------------------------------------------
# sparse insertion specs

def test_nearest_multiple_rounding():
    assert nearest_multiple(Fraction(10, 3), 3) == 3
    assert nearest_multiple(Fraction(5), 2) == 6
    assert nearest_multiple(Fraction(-4, 3), 3) == 0


def test_insertion_digits_track_the_target():
    ins = insertion_target_five_sixths()
    assert [ins.insertion_digit(j) for j in range(1, 6)] == \
        [6, 30, 180, 1080, 6480]
    # each inserted digit is the nearest multiple of the divisor to
    # target * scale^j
    for j in range(1, 6):
        assert ins.insertion_digit(j) == nearest_multiple(
            Fraction(5, 6) * 6 ** j, 3)


def test_insertion_happens_at_triangular_levels():
    ins = insertion_target_five_sixths()
    assert ins.digits_at(1) == (2, 4, 6)
    assert ins.digits_at(2) == (0, 2, 4)
    assert ins.digits_at(3) == (2, 4, 30)
    assert ins.digits_at(6) == (2, 4, 180)
    assert ins.digits_at(10) == (2, 4, 1080)
    assert ins.digits_at(4) == (0, 2, 4)


def test_triangular_index_is_exact_past_float_range():
    # 8k + 1 is far above 1e308 here, where a float square root overflows
    j = 10 ** 200
    k = j * (j + 1) // 2
    assert _is_triangular(k) == j
    assert _is_triangular(k + 1) is None


def test_insertion_pairs_stay_admissible():
    ins = insertion_target_five_sixths()
    for j in range(1, 7):
        pair = ins.insertion_pair(j)
        assert pair.spectrum == (0, 2, 4)
        assert pair.unitarity_residual() < 1e-9


def test_limit_splits_mass_two_to_one():
    for ins in (insertion_target_five_sixths(), insertion_target_one_half()):
        assert ins.limit_weights() == (Fraction(2, 3), Fraction(1, 3))


def test_limit_approximation_hull():
    ins = insertion_target_five_sixths()
    approx, (lo, hi) = ins.limit_approximation(4)
    assert lo == 0
    assert approx.support_min() == 0
    assert approx.support_max() + hi == Fraction(49, 30)
    assert sum(w for _, w in approx.atoms) == 1


def test_limit_accumulates_mass_at_the_target():
    ins = insertion_target_five_sixths()
    for depth in (3, 4, 6):
        approx, _ = ins.limit_approximation(depth)
        # one third of the mass sits in a fixed window around 5/6
        assert approx.mass_in(Fraction(19, 30), Fraction(1)) == Fraction(1, 3)
    tight = (Fraction(5, 6) - Fraction(1, 20), Fraction(5, 6) + Fraction(1, 20))
    approx, _ = ins.limit_approximation(4)
    assert approx.mass_in(*tight) == Fraction(7, 81)


def test_regular_spec_strips_insertions():
    ins = insertion_target_five_sixths()
    reg = ins.regular_spec()
    assert all(p.digits == (0, 2, 4) for p in reg.alphabet)
    assert reg.pair_at(5).digits == (0, 2, 4)


def test_sparse_json_roundtrip():
    ins = insertion_target_one_half()
    again = SparseInsertionSpec.from_json(ins.to_json())
    assert again == ins


def test_spec_json_roundtrip(mixed17):
    again = ConvolutionSpec.from_json(mixed17.to_json())
    assert [again.pair_at(k).digits for k in range(1, 8)] == \
           [mixed17.pair_at(k).digits for k in range(1, 8)]
    assert again.to_json() == mixed17.to_json()


def test_single_letter_spec_from_json_defaults_the_word():
    data = {"alphabet": [{"n": 4, "b": [0, 2], "l": [0, 1]}]}
    spec = ConvolutionSpec.from_json(data)
    assert spec.word.is_constant(1)
    assert spec.pair_at(3).digits == (0, 2)
