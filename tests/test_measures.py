"""Finite atomic measures with exact rational atoms."""

import cmath
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralconv.cli import _dumps
from spectralconv.measures import (
    AtomicMeasure,
    ComplexInterval,
    convolve,
    frac_mod1,
    frac_str,
    parse_frac,
    phase_unit,
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


def test_interval_bounds():
    iv = ComplexInterval(3 + 4j, 0.5)
    assert iv.abs_lower() == 4.5
    assert iv.abs_upper() == 5.5


@given(small_measures())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(m):
    """The atoms `conv truncate` prints read back as the same measure."""
    again = AtomicMeasure.from_json(json.loads(_dumps(m)))
    assert again.atoms == m.atoms


def test_from_pairs_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        AtomicMeasure.from_pairs([(Fraction(0), Fraction(0))])


def test_lattice_form_is_minimal_and_canonical():
    m = AtomicMeasure.from_pairs([(Fraction(1, 2), Fraction(1, 3)),
                                  (Fraction(3, 2), Fraction(2, 3))])
    assert (m.den, m.nums.tolist(), m.weights.tolist(), m.total) == (2, [1, 3], [1, 2], 3)
    # the same measure built by a lattice merge over a larger denominator
    assert AtomicMeasure.from_lattice(6, np.array([9, 3, 9]), np.array([3, 2, 1])) == m
    assert convolve(m, AtomicMeasure.point(0)) == m


@pytest.mark.parametrize("den,nums,weights,total", [
    (2, (0, 2), (1, 1), 2),    # denominator not minimal
    (1, (0, 1), (2, 2), 4),    # weights share a factor
    (1, (1, 0), (1, 1), 2),    # positions out of order
    (1, (0, 0), (1, 1), 2),    # repeated position
    (1, (0, 1), (1, 0), 1),    # zero weight
    (1, (0, 1), (1, 1), 3),    # weights do not sum to the total
    (0, (0,), (1,), 1),        # denominator not positive
])
def test_lattice_constructor_rejects_malformed_fields(den, nums, weights, total):
    with pytest.raises(ValueError):
        AtomicMeasure(den, np.array(nums), np.array(weights), total)


def test_from_pairs_rejects_zero_and_unbalanced_weights():
    with pytest.raises(ValueError, match="weight at 0 must be positive"):
        AtomicMeasure.from_pairs([(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="weights sum to 5/6, expected 1"):
        AtomicMeasure.from_pairs([(0, Fraction(1, 2)), (1, Fraction(1, 3))])
