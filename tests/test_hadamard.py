"""Admissibility certificates and the spectrum search."""

import itertools
from fractions import Fraction

import pytest

from spectralconv.cyclotomic import exponent_sum_vanishes
from spectralconv.hadamard import (
    FIND_SPECTRA_SCALE_LIMIT,
    AdmissiblePair,
    digit_sum_vanishes,
    find_spectra,
    good_differences,
    is_admissible,
)
from spectralconv.spectrality import q_exact_discrete
from spectralconv.words import splitmix64


def test_digit_sum_certificates():
    assert digit_sum_vanishes(4, (0, 2), 1)
    assert digit_sum_vanishes(4, (0, 2), 3)
    assert not digit_sum_vanishes(4, (0, 2), 2)
    assert not digit_sum_vanishes(3, (0, 2), 1)
    assert digit_sum_vanishes(4, (0, 2), 4) is False  # delta = 0 mod 4


def test_good_differences_for_quarter_scale():
    assert sorted(good_differences(4, (0, 2))) == [1, 3]


def _good_differences_per_residue(n, digits):
    """The definition: one exact test per residue delta in [1, n)."""
    return frozenset(delta for delta in range(1, n) if exponent_sum_vanishes(
        n, [(b * delta) % n for b in digits]))


@pytest.mark.parametrize("digits", [(0, 1), (0, 3), (0, 1, 2), (0, 2, 5),
                                    (-3, 0, 4, 8), (0, 1, 3, 4, 6, 10)])
def test_good_differences_by_divisor_match_the_residues(digits):
    for n in range(2, 201):
        assert good_differences(n, digits) == \
            _good_differences_per_residue(n, digits), n
        assert good_differences(-n, digits) == good_differences(n, digits)


def test_good_differences_at_a_huge_scale():
    assert good_differences(10 ** 6, (0, 1)) == frozenset({500000})
    assert good_differences(10 ** 6, (0, 2, 4, 6)) == \
        frozenset({125000, 250000, 375000, 625000, 750000, 875000})


def test_admissibility_known_pairs():
    assert is_admissible(4, (0, 2), (0, 1))
    assert is_admissible(4, (0, 2), (0, 3))
    assert not is_admissible(4, (0, 2), (0, 2))
    assert not is_admissible(3, (0, 2), (0, 1))
    assert not is_admissible(3, (0, 2), (0, 2))
    assert is_admissible(4, (0, 2), (0, 1, 2)) is False  # more frequencies than digits


def test_search_results_are_frozen():
    assert find_spectra(4, (0, 2)) == ((0, 1), (0, 3))
    assert find_spectra(3, (0, 2)) == ()
    assert find_spectra(2, (0, 1)) == ((0, 1),)
    assert find_spectra(6, (0, 1, 2)) == ((0, 2, 4),)
    assert find_spectra(4, (0, 6)) == ((0, 1), (0, 3))


def test_search_normalization():
    # every returned spectrum starts at 0 and is sorted
    for scale, digits in ((4, (0, 2)), (6, (0, 2, 4)), (8, (0, 2))):
        for spec in find_spectra(scale, digits):
            assert spec[0] == 0
            assert list(spec) == sorted(spec)


def test_search_scale_limit_guard():
    with pytest.raises(ValueError):
        find_spectra(FIND_SPECTRA_SCALE_LIMIT + 36, (0, 1))


def test_pair_construction_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        AdmissiblePair(4, (0, 2), (0, 2))


def test_pair_matrix_is_unitary():
    for scale, digits, spectrum in ((4, (0, 2), (0, 1)),
                                    (4, (0, 2), (0, 3)),
                                    (6, (0, 1, 2), (0, 2, 4)),
                                    (-4, (0, 2), (0, 1))):
        pair = AdmissiblePair(scale, digits, spectrum)
        assert pair.unitarity_residual() < 1e-10


def test_negative_scale_is_preserved():
    pair = AdmissiblePair(-4, (0, 2), (0, 1))
    assert pair.scale == -4
    assert pair.modulus == 4


def test_sampled_search_output_is_admissible():
    """Search over a sampled slice of small scales; every hit must pass
    the exact certificate, be numerically unitary, and make the discrete
    orthogonality functional equal 1."""
    found = 0
    index = 0

    def draw(bound):
        nonlocal index
        value = splitmix64(23, index) % bound
        index += 1
        return value

    for trial in range(40):
        n = 2 + draw(9)
        scale = n if draw(2) else -n
        size = min(n, 2 + draw(2))
        digits = [0]
        for _ in range(24):
            if len(digits) == size:
                break
            d = 1 + draw(n - 1)
            if d not in digits:
                digits.append(d)
        digits = tuple(sorted(digits))
        for spectrum in find_spectra(scale, digits):
            found += 1
            assert is_admissible(scale, digits, spectrum)
            pair = AdmissiblePair(scale, digits, spectrum)
            assert pair.unitarity_residual() < 1e-10
            xi = Fraction(splitmix64(23, 1000 + found) % 97, 97)
            assert abs(q_exact_discrete(scale, digits, spectrum, xi) - 1) < 1e-10
    assert found >= 10


def test_pair_json_roundtrip():
    pair = AdmissiblePair(-6, (0, 2, 4), (0, 2, 4))
    again = AdmissiblePair.from_json(pair.to_json())
    assert again == pair
    with pytest.raises(ValueError):
        AdmissiblePair.from_json({"n": 4})
