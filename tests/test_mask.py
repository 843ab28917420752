"""Digit-set exponential sums and their zero sets."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from spectralconv.hadamard import AdmissiblePair
from spectralconv.mask import (
    IrrationalZeroPresent,
    MaskZeros,
    RationalZeroSet,
    eval_mask,
    mask_abs2,
    mask_zero_set,
    rational_zeros,
    window_zeros,
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


@pytest.mark.parametrize("scale,digits,spectrum,exponent", [
    (2, (0, 1), (0, 1), 1),
    (-4, (0, 2), (0, 1), 2),
    (6, (0, 1, 2), (0, 2, 4), 1),
    (-6, (0, 1, 2), (0, 2, 4), 1),
    (8, (0, 1, 2, 3), (0, 2, 4, 6), 1),
    (4, (0, 1, 2, 3), (0, 1, 2, 3), 2),
])
def test_children_of_a_branch_sum_to_one(scale, digits, spectrum, exponent):
    """For an admissible pair, sum_l |m_B(y/s^e + l/s)|^2 = 1 at every y,
    which the Q tree uses to take the last child's factor from the others.
    The computed children y/s^e + l/s are each within delta of the exact
    children of the rounded y/s^e, so the kernel values sum to 1 within
    #L times the kernel's own bound."""
    u = 2.0 ** -53
    pair = AdmissiblePair(scale, digits, spectrum)
    kernel = mask_abs2(pair.digits)
    offsets = np.array(pair.spectrum, dtype=float) / scale
    reach = float(np.abs(offsets).max())
    for j in range(200):
        y = (splitmix64(16, j) / 2.0 ** 64 - 0.5) * 64.0
        base = y / float(scale ** exponent)
        values = kernel((base + offsets).reshape(1, -1))[0]
        big = (abs(base) + reach) * (1.0 + 2.0 * u)
        bound = kernel.slope * (2.01 * u * big + 3.1 * u * big) + kernel.rounding * u
        assert abs(math.fsum(values) - 1.0) <= len(offsets) * bound, (y, values)


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
    # the zeros 1/2 + k of (0, 1), blown up by the scale 3
    levels = iter([(3, (0, 1))])
    assert window_zeros(levels, 6, Fraction(1, 2)) == [Fraction(3, 2), Fraction(9, 2)]


def test_min_abs_nonzero():
    assert rational_zeros((0, 3)).min_abs_nonzero() == Fraction(1, 6)
    assert rational_zeros((0, 1)).min_abs_nonzero() == Fraction(1, 2)
    at_zero = RationalZeroSet(5, (0, 3))
    assert at_zero.min_abs_nonzero() == Fraction(2, 5)
    only_zero = RationalZeroSet(1, (0,))
    assert only_zero.min_abs_nonzero() == 1
    middle = RationalZeroSet(8, (3, 5))
    assert middle.min_abs_nonzero() == Fraction(3, 8)
    near_end = RationalZeroSet(9, (4, 8))
    assert near_end.min_abs_nonzero() == Fraction(1, 9)
    assert RationalZeroSet(1, ()).min_abs_nonzero() == 1


@pytest.mark.parametrize("den,phases", [
    (4, (3, 1)),
    (4, (1, 1)),
    (4, (1, 4)),
    (4, (-1, 1)),
    (8, (2, 6)),
    (2, ()),
    (0, ()),
], ids=["unsorted", "repeated", "phase-at-den", "negative-phase",
        "den-not-minimal", "empty-den-not-one", "den-zero"])
def test_non_canonical_zero_sets_are_rejected(den, phases):
    with pytest.raises(ValueError):
        RationalZeroSet(den, phases)


def test_zero_sets_from_orders_list_the_primitive_roots():
    assert RationalZeroSet.from_orders([2, 4]) == RationalZeroSet(4, (1, 2, 3))
    assert RationalZeroSet.from_orders([6]) == RationalZeroSet(6, (1, 5))
    assert RationalZeroSet.from_orders([]) == RationalZeroSet(1, ())
    assert mask_zero_set((0, 3)).rational == RationalZeroSet(6, (1, 3, 5))


def test_small_digit_set_zero_sets_are_pinned():
    """mask_zero_set(B).to_json() for every B with 0 in B, subset of
    [0, 10], and at least two digits (1,023 sets), one JSON line each."""
    digest = hashlib.sha256()
    for bits in range(1, 1 << 10):
        digits = (0,) + tuple(d for d in range(1, 11) if bits >> (d - 1) & 1)
        line = json.dumps(mask_zero_set(digits).to_json(), sort_keys=True)
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "3b221f4d670f22ca1e0f8c9c983edae3f22a33e99becfe4be18ec59c24a0f4cf")


def test_mask_with_only_irrational_zeros_is_flagged():
    """1 + z + z^3 + z^5 + z^6 never vanishes at a root of unity, yet
    has unimodular roots; the flag carries their angles."""
    mz = mask_zero_set((0, 1, 3, 5, 6))
    assert len(mz.irrational) == 4
    assert mz.rational.phases == ()
    # numeric confirmation at the first reported angle
    theta = mz.irrational[0]
    assert abs(eval_mask((0, 1, 3, 5, 6), theta)) < 1e-8


def test_clean_masks_carry_no_flag():
    for digits in ((0, 1), (0, 2), (0, 1, 2), (0, 3)):
        assert mask_zero_set(digits).irrational == ()


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
