"""Q_n enclosures from q_partial against a 40-digit mpmath oracle.

The oracle sums |mu^(xi + lambda)|^2 over the depth-n candidate spectrum
directly, one lambda at a time, with every position an exact Fraction
and every cosine taken at 40 digits.  Each product is carried past level
n until the rest of the measure, of diameter at most D/(s - 1) (D the
largest digit span, s the smallest scale), can move it by at most
ORACLE_TAIL: 1 - |nu^(t)|^2 <= 2 pi^2 t^2 diam^2 and 2 pi^2 < 20.  The
enclosure q +- r must contain the oracle's whole interval.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spectralconv import spectrality
from spectralconv.catalog import (
    mixed_word_spec,
    scale4_spec,
    two_letter_family_spec,
)
from spectralconv.convolution import ConstantExponents, ConvolutionSpec, PeriodicExponents
from spectralconv.hadamard import AdmissiblePair, first_spectrum
from spectralconv.mask import mask_abs2
from spectralconv.spectrality import candidate_spectrum, q_partial
from spectralconv.words import PeriodicTail, SymbolicWord, splitmix64

DPS = 40
ORACLE_TAIL = Fraction(1, 10 ** 18)
POINTS_PER_SPEC = 50


def _abs2(digits, num: int, den: int):
    """|mask(num/den)|^2 = (#B + 2 sum_{i<j} cos(2 pi (b_j - b_i) num/den))
    / #B^2, each cosine argument reduced modulo 1 exactly first."""
    pairs = Counter(b - a for i, a in enumerate(digits) for b in digits[i + 1:])
    total = mpmath.mpf(len(digits))
    for d, count in pairs.items():
        total += 2 * count * mpmath.cospi(2 * mpmath.mpf(d * num % den) / den)
    return total / len(digits) ** 2


def q_oracle(spec: ConvolutionSpec, n: int, xi: Fraction):
    """Interval [lo, hi] around Q_n(xi), width at most ORACLE_TAIL * Q_n."""
    span = max(max(p.digits) - min(p.digits) for p in spec.alphabet)
    smin = min(p.modulus for p in spec.alphabet) ** spec.exponents.minimum()
    diam = Fraction(span, smin - 1)
    lo = hi = mpmath.mpf(0)
    for lam in candidate_spectrum(spec, n).elements:
        x = xi + lam
        # the rest after level k moves the product by at most bound / c_k^2
        bound = 20 * diam ** 2 * x ** 2
        mass = mpmath.mpf(1)
        c = 1
        k = 0
        while k < n or bound > ORACLE_TAIL * c * c:
            k += 1
            c *= spec.level_scale(k)
            mass *= _abs2(spec.pair_at(k).digits, x.numerator, x.denominator * c)
        hi += mass
        lo += mass * (1 - mpmath.mpf(bound.numerator) / (bound.denominator * c * c))
    return lo, hi


def _points(seed: int) -> list[Fraction]:
    fixed = [Fraction(0), Fraction(1, 3), Fraction(5, 128), Fraction(63, 64),
             Fraction(-1, 2), Fraction(7, 3)]
    drawn = []
    for j in range(POINTS_PER_SPEC - len(fixed)):
        den = (3, 7, 128, 1000, 6 ** 4)[j % 5]
        num = splitmix64(seed, j) % (4 * den + 1) - 2 * den
        drawn.append(Fraction(num, den))
    return fixed + drawn


CASES = {
    "jorgensen-pedersen": (scale4_spec, 4, {}),
    "example-1.7": (mixed_word_spec, 4, {}),
    "grid-alternating": (lambda: two_letter_family_spec(
        2, 2, 3, SymbolicWord((), PeriodicTail((1, 2)))), 4, {}),
    # 27 branches at depth 3 against a budget of 4: pruning at levels 2, 3
    "base6-pruned": (lambda: ConvolutionSpec(
        (AdmissiblePair(6, (0, 1, 2), (0, 2, 4)),),
        SymbolicWord((), PeriodicTail((1,))), ConstantExponents(1)),
        3, {"budget_atoms": 4}),
    # the names below sort after the ones above, so those keep their points
    # a digit span of 30: D = 10 and y0 = 1/(5 pi), so several tail
    # levels run before the fit
    "wide-span": (lambda: ConvolutionSpec(
        (AdmissiblePair(4, (0, 30), (0, 1)),),
        SymbolicWord((), PeriodicTail((1,))), ConstantExponents(1)), 4, {}),
    "negative-scale": (lambda: ConvolutionSpec(
        (AdmissiblePair(-4, (0, 2), (0, 1)), AdmissiblePair(-6, (0, 3), (0, 1))),
        SymbolicWord((), PeriodicTail((1, 2))), ConstantExponents(1)), 4, {}),
    # at depth 1, xi/6 moves |y| across y0 = 2/(3 pi) (D = 9/3): the
    # points of one block stop at different tail levels m, each with its
    # own fit (test_periodic_prefix_points_stop_at_different_tail_levels)
    "periodic-prefix": (lambda: ConvolutionSpec(
        (AdmissiblePair(4, (0, 2), (0, 1)), AdmissiblePair(6, (0, 9), (0, 1))),
        SymbolicWord((2,), PeriodicTail((1, 2, 1))), ConstantExponents(1)), 1, {}),
    # four children and then three per parent: the last child's factor is
    # one minus the sum of three (or two), clamped at 0; 48 branches
    # against a budget of 20 prune the last level
    "wz-four-digit": (lambda: ConvolutionSpec(
        (AdmissiblePair(8, (0, 1, 2, 3), (0, 2, 4, 6)),
         AdmissiblePair(-6, (0, 1, 2), (0, 2, 4))),
        SymbolicWord((), PeriodicTail((1, 2))), ConstantExponents(1)),
        3, {"budget_atoms": 20}),
    # exponents (2, 1): level weights c_{k-1} s^(e-1), with a three-digit
    # letter whose middle child is flushed to 0 at xi = 0
    "x-periodic-exponents": (lambda: ConvolutionSpec(
        (AdmissiblePair(4, (0, 2), (0, 1)), AdmissiblePair(6, (0, 1, 2), (0, 2, 4))),
        SymbolicWord((), PeriodicTail((1, 2))), PeriodicExponents((2, 1))), 4, {}),
    # N = 2^21 + 2: |c_3| = 6 N^2 times the largest frequency N/2 passes
    # 2^63, and the tail level 5 that the width D = N/10 needs has
    # |c_5| = 36 N^3 past 2^62, so the cosine tables of both take their
    # residues from Python ints
    "y-scale-past-2-62": (lambda: ConvolutionSpec(
        (AdmissiblePair(-2097154, (0, 1048577), (0, 1)),
         AdmissiblePair(6, (0, 1, 2), (0, 2, 4))),
        SymbolicWord((), PeriodicTail((1, 2))), ConstantExponents(1)), 4, {}),
}


@pytest.fixture(scope="module")
def oracle_values():
    out = {}
    with mpmath.workdps(DPS):
        for seed, (name, (build, n, _)) in enumerate(sorted(CASES.items())):
            spec = build()
            points = _points(seed)
            out[name] = (points, [q_oracle(spec, n, xi) for xi in points])
    return out


@pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-15])
@pytest.mark.parametrize("name", sorted(CASES))
def test_q_enclosure_contains_the_oracle(oracle_values, name, tol):
    build, n, options = CASES[name]
    points, exact = oracle_values[name]
    report = q_partial(build(), n, points, tol=tol, **options)
    misses = []
    with mpmath.workdps(DPS):
        for xi, (lo, hi), q, r in zip(points, exact, report.q_values,
                                      report.radii):
            assert r >= 0
            q, r = mpmath.mpf(q), mpmath.mpf(r)
            if lo < q - r or hi > q + r:
                misses.append("Q_%d(%s) = %r +- %r, oracle [%s, %s]" % (
                    n, xi, float(q), float(r), mpmath.nstr(lo, 20),
                    mpmath.nstr(hi, 20)))
    assert not misses, misses[:3]


def test_a_clamped_last_child_keeps_the_oracle_inside():
    """Just off the even integers, the first three children of
    (8, {0,1,2,3}) can sum past 1 in floats; the fourth child's factor is
    then clamped at 0, and the enclosure must still hold the oracle."""
    build, n, options = CASES["wz-four-digit"]
    spec = build()
    kernel = mask_abs2((0, 1, 2, 3))
    offsets = np.array([0.0, 2.0, 4.0]) / 8
    near = [2 * k + Fraction(j, 10 ** 9) for k in range(-4, 5) for j in range(-40, 41)]
    points = [xi for xi in near
              if kernel((float(xi) / 8.0 + offsets).reshape(1, -1)).sum() > 1.0]
    assert points
    with mpmath.workdps(DPS):
        exact = [q_oracle(spec, n, xi) for xi in points]
        for tol in (1e-6, 1e-12, 1e-15):
            report = q_partial(spec, n, points, tol=tol, **options)
            for (lo, hi), q, r in zip(exact, report.q_values, report.radii):
                q, r = mpmath.mpf(q), mpmath.mpf(r)
                assert q - r <= lo and hi <= q + r


def test_table_factors_lie_within_their_bound():
    """Each entry of the cosine tables' factor, on tree levels and on two
    tail levels, is within its level's bound ``err`` of the 40-digit
    |m_B((xi + lambda)/c_k)|^2, for random digit sets and spectra at
    scales of either sign, |xi| > 1, and a scale N = 2^21 + 2 whose
    lambdas pass 2^62 (Python ints) and whose c_k pass 2^53."""
    rng = random.Random(22)
    pairs = []
    while len(pairs) < 6:
        scale = rng.choice([-6, -4, -3, 3, 4, 5, 6, 8])
        digits = (0,) + tuple(sorted(rng.sample(range(1, 13), rng.randint(1, 3))))
        spectrum = first_spectrum(scale, digits)
        if spectrum is not None:
            pairs.append(AdmissiblePair(scale, digits, spectrum))
    specs = [ConvolutionSpec(tuple(pairs[i:i + 3]),
                             SymbolicWord((), PeriodicTail((1, 3, 2))),
                             ConstantExponents(1)) for i in (0, 3)]
    specs.append(ConvolutionSpec((AdmissiblePair(-2097154, (0, 1048577), (0, 1)),),
                                 SymbolicWord((), PeriodicTail((1,))),
                                 ConstantExponents(1)))
    xis = [Fraction(rng.choice([-1, 1]) * rng.randint(65, 400), 64) for _ in range(6)]
    xs = np.array([float(x) for x in xis])
    misses = []
    with mpmath.workdps(DPS):
        for spec in specs:
            shared = spectrality._SharedLevels(spec, xs)
            n = 4 if spec is specs[-1] else 3
            for k in range(1, n + 3):
                if k <= n:
                    spectrum = spectrality._level_spectrum(spec.pair_at(k))
                    shared.add(k, spectrum)
                    lam = shared.lam[:len(shared.lam) - len(shared.lam) // len(spectrum)]
                else:
                    lam = shared.lam
                out = shared.factor(k, slice(None))
                c = spec.cumulative_scale(k)
                for xi, row, err in zip(xis, out, shared(k)[-1]):
                    for l, value in zip(lam.tolist(), row):
                        x = (xi + l) / c
                        exact = _abs2(spec.pair_at(k).digits, x.numerator, x.denominator)
                        if abs(mpmath.mpf(value) - exact) > err:
                            misses.append((k, xi, l, value, float(exact), err))
    assert shared.lam.dtype == object
    assert not misses, misses[:3]


FIT_POINTS = 200


def f_oracle(spec: ConvolutionSpec, m: int, y: Fraction):
    """Interval around F_m(y) = |nu_m^(y)|^2, nu_m the levels after m, of
    width at most ORACLE_TAIL, with the diameter bound of ``q_oracle``."""
    span = max(max(p.digits) - min(p.digits) for p in spec.alphabet)
    smin = min(p.modulus for p in spec.alphabet) ** spec.exponents.minimum()
    bound = 20 * Fraction(span, smin - 1) ** 2 * y ** 2
    mass = mpmath.mpf(1)
    c = 1
    k = m
    while bound > ORACLE_TAIL * c * c:
        k += 1
        c *= abs(spec.level_scale(k))
        mass *= _abs2(spec.pair_at(k).digits, y.numerator, y.denominator * c)
    return mass * (1 - mpmath.mpf(bound.numerator) / (bound.denominator * c * c)), mass


@pytest.mark.parametrize("name,m", [("jorgensen-pedersen", 8), ("example-1.7", 5),
                                    ("wide-span", 4), ("negative-scale", 3),
                                    ("periodic-prefix", 2), ("base6-pruned", 2)])
def test_tail_fit_bound_holds_against_the_oracle(name, m):
    """F_m from the tail fit is within quad * y^2, plus the rounding of its
    last subtraction, of the 40-digit value at FIT_POINTS points across
    [-y0, y0], and that bound stays below 1e-12."""
    spec = CASES[name][0]()
    fits = spectrality._TailFits(spec)
    fit = fits(m)
    assert 0 < fit.quad * fits.y0 ** 2 < 1e-12
    ys = [fits.y_stop * (2 * i / (FIT_POINTS - 1) - 1) for i in range(FIT_POINTS)]
    values = fit(np.array([y * y for y in ys]))
    misses = []
    with mpmath.workdps(DPS):
        for y, value in zip(ys, values):
            lo, hi = f_oracle(spec, m, Fraction(y))
            bound = mpmath.mpf(fit.quad) * mpmath.mpf(y) ** 2 + 2.0 ** -53 * value
            if lo < value - bound or hi > value + bound:
                misses.append("F_%d(%r) = %r +- %r, oracle [%s, %s]" % (
                    m, y, float(value), float(bound), mpmath.nstr(lo, 20),
                    mpmath.nstr(hi, 20)))
    assert not misses, misses[:3]


def test_periodic_prefix_points_stop_at_different_tail_levels():
    """After level n some points of the one block have every |y| well
    inside the fit interval and others reach past y0; at tol 1e-6 the
    fit's bound holds no branch back, so the first stop at level n and
    the others run a tail level first."""
    build, n, options = CASES["periodic-prefix"]
    spec = build()
    fits = spectrality._TailFits(spec)
    points = _points(sorted(CASES).index("periodic-prefix"))
    spectrum = candidate_spectrum(spec, n).elements
    assert len(points) * len(spectrum) <= spectrality._BLOCK_ENTRIES
    assert not options
    c = abs(spec.cumulative_scale(n))
    reach = [max(abs(xi + lam) for lam in spectrum) / c for xi in points]
    assert fits(n).quad * fits.y0 ** 2 < 1e-6 / 4
    assert any(r < fits.y_stop / 2 for r in reach)
    assert any(r > fits.y0 * (1 + 1e-9) for r in reach)


# the CI truncation spec: signed digits, a scale past int64 when cubed
HUGE = {"alphabet": [{"n": -1000003, "b": [0, 5, 11]}, {"n": 3, "b": [-4, 0, 7]}],
        "word": {"prefix": [2], "tail": {"periodic": [1, 2]}},
        "exponents": {"periodic": [3, 1]}}


@pytest.mark.parametrize("name", ["huge", "negative-scale", "wz-four-digit",
                                  "jorgensen-pedersen"])
def test_tail_width_covers_the_exact_hull(name):
    """D is at least the hull width of every tail truncation (a bound
    that Jorgensen-Pedersen's truncations approach), and pi y0 D = 2 but
    for 2 pi rounded up to 710/113 and y0 rounded down."""
    spec = ConvolutionSpec.from_json(HUGE) if name == "huge" else CASES[name][0]()
    fits = spectrality._TailFits(spec)
    for m in range(5):
        atoms = spec.tail(m).truncate(8)
        assert atoms.support_max() - atoms.support_min() <= fits.width
    with mpmath.workdps(DPS):
        widening = mpmath.pi * mpmath.mpf(fits.y0) * fits.width.numerator \
            / fits.width.denominator
        assert 2 * mpmath.pi * 113 / 355 * (1 - 2.0 ** -52) <= widening <= 2


@pytest.mark.parametrize("width", [1, 127, 128, 129, 3 ** 9, 2 ** 14])
def test_blocked_row_sums_stay_within_their_depth(width):
    """Each row sum is within gamma of ``_sum_depth`` of math.fsum, also
    on a row that a left-to-right sum gets wrong by (width - 1) u/2, past
    that bound at width 2^14."""
    rng = np.random.default_rng(width)
    rows = np.stack([rng.random(width),
                     2.0 ** rng.integers(-60, 60, width) * rng.random(width),
                     np.array([1.0] + [2.0 ** -54] * (width - 1))])
    depth = spectrality._sum_depth(width)
    gamma = depth * 2.0 ** -53 / (1 - depth * 2.0 ** -53)
    for row, total in zip(rows, spectrality._row_sums(rows)):
        exact = math.fsum(row)
        assert abs(total - exact) <= gamma * exact


@pytest.mark.parametrize("name", sorted(CASES))
def test_q_is_exactly_one_at_zero(name):
    build, n, options = CASES[name]
    report = q_partial(build(), n, [0, Fraction(1, 3)], **options)
    assert report.q_values[0] == 1.0


def fraction_fit(fits, m: int):
    """The tail fit of level m as built with every power-of-s coefficient
    an exact ``Fraction``: the reference for the integer conversion."""
    spec, y0, lip, u, size = fits.spec, fits.y0, fits.lip, 2.0 ** -53, 10
    ys = [y0 * math.cos(math.pi * (2 * j + 1) / (4 * size)) for j in range(size)]
    ratios = [y.as_integer_ratio() for y in ys]
    deficits = [0.0] * size
    scale, depth, term_ulps = 1, 0, 0
    while True:
        depth += 1
        scale *= abs(spec.level_scale(m + depth))
        kernel = mask_abs2(spec.pair_at(m + depth).digits)
        term_ulps = max(term_ulps, 38 + len(kernel.coeffs))
        rest = []
        for j, (a, b) in enumerate(ratios):
            z = a / (b * scale)
            d = deficits[j]
            deficits[j] = d + kernel.deficit(z) * (1.0 - d)
            rest.append(lip * z * z)
        if depth == 256 or all(r <= u * d for r, d in zip(rest, deficits)):
            break
    rel = 1.01 * (term_ulps + depth + 8) * u
    values = [d / (y * y) for d, y in zip(deficits, ys)]
    node_err = max(v * rel + 1.01 * r / (y * y) + 14.0 * lip * u
                   for v, r, y in zip(values, rest, ys))
    cheb, coef_err = [], 0.0
    total = math.fsum(abs(v) for v in values)
    for k in range(size):
        terms = []
        for j, v in enumerate(values):
            r = k * (2 * j + 1) % (4 * size)
            r = min(r, 4 * size - r)
            sign = 1.0
            if r > size:
                r, sign = 2 * size - r, -1.0
            terms.append(sign * v * math.cos(math.pi * r / (2 * size)))
        a = (2.0 if k else 1.0) * math.fsum(terms) / size
        cheb.append(a)
        coef_err += 2.0 * 14.0 * u * total / size + 2.0 * u * abs(a)
    s0 = Fraction(y0) ** 2
    t = [Fraction(-1), 2 / s0]
    prev, cur = [Fraction(1)], t
    exact = [Fraction(cheb[0])] + [Fraction(0)] * (size - 1)
    for k in range(1, size):
        for i, c in enumerate(cur):
            exact[i] += Fraction(cheb[k]) * c
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += 2 * t[0] * c
            nxt[i + 1] += 2 * t[1] * c
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    horner = float(sum(abs(c) * s0 ** i for i, c in enumerate(exact)))
    chain = 2 * size * u / (1 - 2 * size * u)
    quad = 1.01 * (2.0 * lip * 4 ** size / math.factorial(2 * size + 2)
                   + 2.5 * node_err + coef_err + lip * u + (chain + 2.0 * u) * horner)
    return tuple(float(c) for c in reversed(exact)), quad


@pytest.mark.parametrize("name", sorted(CASES))
def test_tail_fit_matches_the_fraction_conversion_bit_for_bit(name):
    fits = spectrality._TailFits(CASES[name][0]())
    for m in (1, 2, 5):
        coeffs, quad = fraction_fit(fits, m)
        fit = fits(m)
        assert [c.hex() for c in fit.coeffs] == [c.hex() for c in coeffs]
        assert fit.quad.hex() == quad.hex()
