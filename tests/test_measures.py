"""Finite atomic measures with exact rational atoms."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralconv.measures import (
    AffineMap,
    AtomicMeasure,
    ComplexInterval,
    convolve,
    frac_mod1,
    frac_str,
    mixture,
    parse_frac,
    phase_unit,
    pushforward,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
weights = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)


def _normalized(pairs):
    merged = dict(pairs)
    total = sum(merged.values())
    return AtomicMeasure.from_pairs((x, w / total) for x, w in merged.items())


def small_measures():
    return st.lists(st.tuples(fracs, weights), min_size=1, max_size=4).map(_normalized)


def weight_at(m, x):
    """Weight of the atom at x; 0 when there is none."""
    return dict(m.atoms).get(Fraction(x), Fraction(0))


def test_frac_mod1_wraps_into_unit_interval():
    assert frac_mod1(Fraction(7, 3)) == Fraction(1, 3)
    assert frac_mod1(Fraction(-1, 3)) == Fraction(2, 3)
    assert frac_mod1(Fraction(2)) == 0


def test_frac_string_roundtrip():
    for text in ("3/4", "-2/3", "5", "0"):
        assert frac_str(parse_frac(text)) == text


def test_phase_unit_sign_convention():
    # phase_unit(theta) = exp(-2 pi i theta)
    assert abs(phase_unit(Fraction(1, 2)) + 1) < 1e-15
    assert abs(phase_unit(Fraction(1, 4)) + 1j) < 1e-15
    assert phase_unit(Fraction(0)) == 1


def test_point_mass_transform_is_a_phase():
    m = AtomicMeasure.point(Fraction(1, 4))
    assert abs(m.ft(1) + 1j) < 1e-15
    assert abs(abs(m.ft(Fraction(3, 7))) - 1) < 1e-14


def test_uniform_weights_are_exact():
    m = AtomicMeasure.uniform((0, Fraction(1, 3), Fraction(2, 3)))
    assert all(w == Fraction(1, 3) for _, w in m.atoms)
    assert weight_at(m, Fraction(1, 3)) == Fraction(1, 3)
    assert weight_at(m, Fraction(1, 7)) == 0


def test_mass_in_interval_endpoint_conventions():
    m = AtomicMeasure.uniform((0, Fraction(1, 2), 1))
    assert m.mass_in(0, 1) == Fraction(1, 3)  # open by default
    assert m.mass_in(0, 1, open_interval=False) == 1
    assert m.support_min() == 0 and m.support_max() == 1


@given(small_measures(), small_measures())
@settings(max_examples=60, deadline=None)
def test_convolution_commutes(m1, m2):
    left = convolve(m1, m2)
    right = convolve(m2, m1)
    assert left.atoms == right.atoms


@given(small_measures(), small_measures(), small_measures())
@settings(max_examples=30, deadline=None)
def test_convolution_associates(m1, m2, m3):
    left = convolve(convolve(m1, m2), m3)
    right = convolve(m1, convolve(m2, m3))
    assert left.atoms == right.atoms


@given(small_measures(), small_measures(), fracs)
@settings(max_examples=60, deadline=None)
def test_transform_of_convolution_is_product(m1, m2, xi):
    c = convolve(m1, m2)
    assert abs(c.ft(xi) - m1.ft(xi) * m2.ft(xi)) < 1e-10


@given(small_measures(), small_measures())
@settings(max_examples=40, deadline=None)
def test_convolution_support_adds(m1, m2):
    c = convolve(m1, m2)
    assert c.support_min() == m1.support_min() + m2.support_min()
    assert c.support_max() == m1.support_max() + m2.support_max()
    assert sum(w for _, w in c.atoms) == 1


@given(small_measures(), fracs, fracs)
@settings(max_examples=60, deadline=None)
def test_pushforward_transform_identity(m, a, b):
    """FT of the image under x -> ax + b picks up a phase and a dilation."""
    if a == 0:
        return
    t = AffineMap(a, b)
    moved = pushforward(m, t)
    xi = Fraction(3, 7)
    expected = phase_unit(xi * b) * m.ft(a * xi)
    assert abs(moved.ft(xi) - expected) < 1e-10


def test_mixture_scales_component_masses():
    a = AtomicMeasure.point(0)
    b = AtomicMeasure.point(1)
    m = mixture([(Fraction(1, 4), a), (Fraction(3, 4), b)])
    assert weight_at(m, 0) == Fraction(1, 4)
    assert weight_at(m, 1) == Fraction(3, 4)


def test_mixture_merges_coincident_atoms():
    a = AtomicMeasure.uniform((0, 1))
    b = AtomicMeasure.uniform((1, 2))
    m = mixture([(Fraction(1, 2), a), (Fraction(1, 2), b)])
    assert weight_at(m, 1) == Fraction(1, 2)


def test_interval_bounds():
    iv = ComplexInterval(3 + 4j, 0.5)
    assert iv.abs_lower() == 4.5
    assert iv.abs_upper() == 5.5


def test_certified_transform_encloses_the_point_value():
    m = AtomicMeasure.uniform((0, Fraction(1, 8), Fraction(5, 8)))
    xi = Fraction(2, 3)
    iv = m.ft_interval(xi)
    assert abs(iv.value - m.ft(xi)) <= iv.radius
    assert iv.radius < 1e-12


@given(small_measures())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(m):
    again = AtomicMeasure.from_json(m.to_json())
    assert again.atoms == m.atoms


def test_from_pairs_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        AtomicMeasure.from_pairs([(Fraction(0), Fraction(0))])
