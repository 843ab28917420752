"""Digit-set exponential sums and their zero sets."""

from fractions import Fraction

import numpy as np
import pytest

from spectralconv.mask import (
    IrrationalZeroPresent,
    MaskZeros,
    RationalZeroSet,
    eval_mask,
    mask_abs2,
    mask_zero_set,
    rational_zeros,
)
from spectralconv.words import splitmix64


def test_mask_at_origin_is_one():
    for digits in ((0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 2, 4)):
        assert abs(eval_mask(digits, 0) - 1) < 1e-15


def test_mask_vanishes_at_known_points():
    assert abs(eval_mask((0, 2), Fraction(1, 4))) < 1e-15
    assert abs(eval_mask((0, 1), Fraction(1, 2))) < 1e-15
    assert abs(eval_mask((0, 3), Fraction(1, 6))) < 1e-15


def test_vectorized_values_match_scalar():
    xs = np.linspace(-2.0, 2.0, 41)
    for digits in ((0, 2), (0, 1, 5)):
        vec = mask_abs2(digits)(xs)
        for x, v in zip(xs, vec):
            assert abs(v - abs(eval_mask(digits, float(x))) ** 2) < 1e-12


def test_two_digit_zero_sets():
    z = rational_zeros((0, 1))
    assert z.members_in(0, 2) == [Fraction(1, 2), Fraction(3, 2)]
    z = rational_zeros((0, 2))
    assert z.members_in(0, 1) == [Fraction(1, 4), Fraction(3, 4)]
    z = rational_zeros((0, 4))
    assert z.members_in(0, Fraction(1, 2)) == [Fraction(1, 8), Fraction(3, 8)]


def test_consecutive_digit_zero_set_is_punctured_lattice():
    # digits 0..N-1 vanish exactly on (1/N) * (integers not divisible by N)
    for n in (2, 3, 4, 5):
        z = rational_zeros(tuple(range(n)))
        got = z.members_in(Fraction(-3), Fraction(3))
        expected = [Fraction(k, n) for k in range(-3 * n, 3 * n + 1)
                    if k % n != 0]
        assert got == sorted(expected)


def test_membership_is_exact():
    z = rational_zeros((0, 2))
    assert Fraction(1, 4) in z
    assert Fraction(3, 4) in z
    assert Fraction(5, 4) in z
    assert Fraction(1, 2) not in z
    assert Fraction(0) not in z


def test_zero_sets_are_symmetric_under_negation():
    """Masks have real coefficients, so zeros come in +-x pairs."""
    rng_index = 0
    for trial in range(25):
        size = 2 + splitmix64(11, rng_index) % 3
        rng_index += 1
        digits = [0]
        while len(digits) < size:
            d = 1 + splitmix64(11, rng_index) % 9
            rng_index += 1
            if d not in digits:
                digits.append(d)
        z = mask_zero_set(tuple(sorted(digits))).rational
        for x in z.members_in(0, 3) + z.members_in(-3, 0):
            assert -x in z


def test_every_listed_zero_kills_the_mask():
    for digits in ((0, 1), (0, 3), (0, 2, 4), (0, 1, 2, 3), (0, 5)):
        z = rational_zeros(digits)
        for x in z.members_in(-2, 2):
            assert abs(eval_mask(digits, x)) < 1e-12


def test_scaling_and_shifting_zero_sets():
    z = rational_zeros((0, 1))
    assert z.scaled(3).members_in(0, 6) == [Fraction(3, 2), Fraction(9, 2)]


def test_min_abs_nonzero():
    assert rational_zeros((0, 3)).min_abs_nonzero() == Fraction(1, 6)
    assert rational_zeros((0, 1)).min_abs_nonzero() == Fraction(1, 2)
    at_zero = RationalZeroSet(Fraction(1), (Fraction(0), Fraction(3, 5)))
    assert at_zero.min_abs_nonzero() == Fraction(2, 5)
    only_zero = RationalZeroSet(Fraction(1), (Fraction(0),))
    assert only_zero.min_abs_nonzero() == 1
    wide = RationalZeroSet(Fraction(3), (Fraction(1, 2), Fraction(5, 2)))
    assert wide.min_abs_nonzero() == Fraction(1, 2)
    near_end = RationalZeroSet(Fraction(5, 2), (Fraction(1), Fraction(9, 4)))
    assert near_end.min_abs_nonzero() == Fraction(1, 4)
    assert RationalZeroSet(Fraction(2), ()).min_abs_nonzero() == 2


def test_mask_with_only_irrational_zeros_is_flagged():
    """1 + z + z^3 + z^5 + z^6 never vanishes at a root of unity, yet
    has unimodular roots; the flag carries their angles."""
    mz = mask_zero_set((0, 1, 3, 5, 6))
    assert mz.irrational is not None
    assert len(mz.irrational.angles) == 4
    assert mz.rational.phases == ()
    # numeric confirmation at the first reported angle
    theta = mz.irrational.angles[0]
    assert abs(eval_mask((0, 1, 3, 5, 6), theta)) < 1e-8


def test_clean_masks_carry_no_flag():
    for digits in ((0, 1), (0, 2), (0, 1, 2), (0, 3)):
        assert mask_zero_set(digits).irrational is None


def test_flagged_digits_poison_window_enumeration():
    from spectralconv.catalog import scale4_spec
    from spectralconv.convolution import ConstantExponents, ConvolutionSpec
    from spectralconv.hadamard import AdmissiblePair

    spec = ConvolutionSpec(
        (AdmissiblePair(7, (0, 1, 3, 5, 6)),),
        scale4_spec().word, ConstantExponents(1))
    with pytest.raises(IrrationalZeroPresent):
        spec.min_zero_gap()
    assert spec.min_zero_gap(require_complete=False) is None
