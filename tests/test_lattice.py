"""Integer-lattice measures against the per-atom Fraction reference.

`AtomicMeasure` keeps positions as integer numerators over one common
denominator and weights as integers over their total.  The reference
below is the Fraction code it replaced: the per-level `convolve` chain
behind `ConvolutionSpec.truncate`, the support cover of
`truncate_with_tail`, the bisect `overlap_mass`, the mixture behind
`SparseInsertionSpec.limit_approximation`, `translate_disjoint_window`
and `iz_finite` with its hand-built common denominators, whose roots of
unity come from its own Moebius-product Phi_n and long division and whose
unit-circle flag comes from mpmath, not from the library.  Every result
must match it exactly, and `conv truncate` must print what `json.dumps`
prints of the reference atoms.
"""

import cmath
import functools
import importlib
import json
import math
import os
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectralconv.catalog import (
    insertion_target_five_sixths,
    insertion_target_one_half,
)
from spectralconv.cli import _dumps, main
from spectralconv.convolution import (
    ConvolutionSpec,
    PeriodicExponents,
    overlap_mass,
)
from spectralconv.hadamard import AdmissiblePair
from spectralconv.measures import AtomicMeasure, convolve
from spectralconv.spectrality import (
    EMPTY_CERTIFIED,
    NONEMPTY_WITNESS,
    UNDECIDED,
    IZVerdict,
    WindowCertificate,
    iz_finite,
    translate_disjoint_window,
)
from spectralconv.words import PeriodicTail, SymbolicWord

# ---------------------------------------------------------------------------
# the Fraction reference


def ref_frac_str(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def ref_convolve(a, b):
    out = {}
    for x1, w1 in a:
        for x2, w2 in b:
            s = x1 + x2
            out[s] = out.get(s, Fraction(0)) + w1 * w2
    return tuple(sorted(out.items()))


def ref_scale(spec, q):
    c = 1
    for k in range(1, q + 1):
        c *= spec.pair_at(k).scale ** spec.exponent_at(k)
    return c


def ref_truncate(spec, q):
    """The point mass at 0 convolved with uniform(b / c_k), level by level."""
    atoms = ((Fraction(0), Fraction(1)),)
    for k in range(1, q + 1):
        c, digits = ref_scale(spec, k), spec.pair_at(k).digits
        level = tuple(sorted((Fraction(b, c), Fraction(1, len(digits))) for b in digits))
        atoms = ref_convolve(atoms, level)
    return atoms


def ref_tail_interval(spec, q, terms=48):
    """Enclosure of the tail after level q, scaled back by c_q."""
    tail = spec.tail(q)
    lo = hi = Fraction(0)
    c = 1
    for k in range(1, terms + 1):
        digits = tail.pair_at(k).digits
        c *= tail.pair_at(k).scale ** tail.exponent_at(k)
        if c > 0:
            lo, hi = lo + Fraction(min(digits), c), hi + Fraction(max(digits), c)
        else:
            lo, hi = lo + Fraction(max(digits), c), hi + Fraction(min(digits), c)
    geo = Fraction(1, abs(c) * (tail.min_level_scale() - 1))
    if all(pair.scale > 0 for pair in tail.alphabet):
        dlo = min(min(pair.digits) for pair in tail.alphabet)
        dhi = max(max(pair.digits) for pair in tail.alphabet)
        nlo, nhi = lo + min(0, dlo) * geo, hi + max(0, dhi) * geo
    else:
        rem = tail.max_abs_digit() * geo
        nlo, nhi = lo - rem, hi + rem
    cq = ref_scale(spec, q)
    return (nlo / cq, nhi / cq) if cq > 0 else (nhi / cq, nlo / cq)


def ref_overlap(atoms, interval, j):
    width = interval[1] - interval[0]
    positions = [x for x, _ in atoms]
    total = Fraction(0)
    for x, w in atoms:
        idx = bisect_left(positions, x - j - width)
        if idx < len(positions) and positions[idx] <= x - j + width:
            total += w
    return total


def ref_limit_approximation(spec, depth):
    regular = spec.regular_spec()
    base = ref_truncate(regular, depth)
    w_plain, w_shift = spec.limit_weights()
    out = {}
    for c, atoms in ((w_plain, base),
                     (w_shift, [(x + spec.target, w) for x, w in base])):
        for x, w in atoms:
            out[x] = out.get(x, Fraction(0)) + c * w
    return tuple(sorted(out.items())), ref_tail_interval(regular, depth)


def ref_window(atoms, tail_interval, window):
    a, b = window
    lo_t, hi_t = tail_interval
    positions = [x for x, _ in atoms]
    k_lo = math.floor(positions[0] + lo_t - b) + 1
    k_hi = math.ceil(positions[-1] + hi_t - a) - 1
    checked, blocking = [], []
    for k in range(k_lo, k_hi + 1):
        if k == 0:
            continue
        checked.append(k)
        left = bisect_right(positions, a + k - hi_t)
        right = bisect_left(positions, b + k - lo_t)
        for x in positions[left:right]:
            if x + hi_t > a + k and x + lo_t < b + k and len(blocking) < 8:
                blocking.append((k, x))
    mass = sum((w for x, w in atoms if x + lo_t > a and x + hi_t < b), Fraction(0))
    if blocking:
        reason = ("support cover reaches translate(s) %s of the window"
                  % ", ".join(sorted({"%+d" % k for k, _ in blocking})))
        return WindowCertificate(False, mass, tuple(checked), tuple(blocking), reason)
    if mass == 0:
        return WindowCertificate(
            False, mass, tuple(checked), (),
            "no atom's cover fits strictly inside the window; the mass "
            "lower bound is 0")
    return WindowCertificate(
        True, mass, tuple(checked), (),
        "mass at least %s inside the window; all %d intersecting integer "
        "translates miss the support cover" % (ref_frac_str(mass), len(checked)))


def ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_divmod(num, den):
    """Quotient and remainder of integer polynomials, lowest degree first,
    by long division by den, which is monic or divides num."""
    rem, quot = list(num), [0] * max(len(num) - len(den) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + len(den) - 1] // den[-1]
        for j, dj in enumerate(den):
            rem[k + j] -= c * dj
    return quot, ref_trim(rem[:len(den) - 1])


def ref_mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@functools.lru_cache(maxsize=None)
def ref_cyclotomic(n):
    """Phi_n = prod over d | n of (x^d - 1)^mu(n/d): the factors with
    mu = 1 multiplied out, then divided by the product of those with
    mu = -1."""
    factors = {1: [1], -1: [1]}
    for d in range(1, n + 1):
        mu = ref_mobius(n // d) if n % d == 0 else 0
        if mu:
            p = factors[mu]
            factors[mu] = [a - b for a, b in zip([0] * d + p, p + [0] * d)]  # p (x^d - 1)
    quot, rem = ref_divmod(factors[1], factors[-1])
    assert rem == []
    return tuple(quot)


@functools.lru_cache(maxsize=None)
def ref_totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


def ref_cyclotomic_factors(coeffs):
    """Every n with Phi_n | P, for P with P(0) != 0, and P with those
    factors divided out as often as they divide.  Phi_n | P needs
    phi(n) <= deg P, and phi(n) >= sqrt(n / 2), so n <= 2 deg^2.  Horner's
    rule in double precision at a rounded e(1/n) errs by less than
    8 deg 2^-53 sum |c|, far below 1e-9 sum |c| at these degrees, so Phi_n
    is tried, by exact division, wherever |P(e(1/n))| is below that."""
    deg, scale = len(coeffs) - 1, sum(map(abs, coeffs))
    phi = ref_totients(1 << (2 * deg * deg).bit_length())
    orders, residual = [], list(coeffs)
    for n in range(1, 2 * deg * deg + 1):
        if phi[n] > len(residual) - 1:
            continue
        z, value = cmath.exp(2j * cmath.pi / n), 0
        for c in reversed(coeffs):
            value = value * z + c
        if abs(value) > 1e-9 * scale:
            continue
        quot, rem = ref_divmod(residual, ref_cyclotomic(n))
        if rem:
            continue
        orders.append(n)
        while not rem:
            residual, (quot, rem) = quot, ref_divmod(quot, ref_cyclotomic(n))
    return orders, residual


def ref_int_gcd(a, b):
    """gcd of integer polynomials a != 0 and b, lowest degree first, by the
    primitive pseudo-remainder sequence; a itself when b is zero.  (The
    Fraction Euclid of ref_fraction_gcd takes half a minute at degree 120.)"""
    while b:
        a = list(a)
        while len(a) >= len(b):
            c, k = a[-1], len(a) - len(b)
            a = [b[-1] * x for x in a]
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
            a = ref_trim(a)
            g = math.gcd(*a) or 1
            a = [x // g for x in a]
        a, b = b, a
    return a


def ref_iz_finite(atoms):
    """Z(mu) from the zeros of the whole support polynomial P: its roots of
    unity by ref_cyclotomic_factors, counted per class mod 1, and a
    unit-circle flag for the rest R of P from the mpmath roots of the
    squarefree part of gcd(R, R*), where any root of modulus 1 of R lies."""
    D = 1
    for x, _ in atoms:
        D = D * x.denominator // math.gcd(D, x.denominator)
    positions = [int(x * D) for x, _ in atoms]
    pmin = min(positions)
    wden = 1
    for _, w in atoms:
        wden = wden * w.denominator // math.gcd(wden, w.denominator)
    coeffs = [0] * (max(positions) - pmin + 1)
    for (_, w), pos in zip(atoms, positions):
        coeffs[pos - pmin] += int(w * wden)
    orders, residual = ref_cyclotomic_factors(coeffs)
    zeros = set()
    for order in orders:
        for j in range(1, order + 1):
            if math.gcd(j, order) == 1:
                zeros.add(Fraction(D * j, order) % D)
    by_class = {}
    for z in zeros:
        by_class[z % 1] = by_class.get(z % 1, 0) + 1
    complete = sorted(f for f, count in by_class.items() if count == D)
    if complete:
        return IZVerdict(
            NONEMPTY_WITNESS, witness=complete[0],
            reason="transform has period %d and vanishes on %s plus every "
                   "integer offset 0..%d" % (D, ref_frac_str(complete[0]), D - 1))
    sym = ref_int_gcd(residual, residual[::-1])
    sym = ref_divmod(sym, ref_int_gcd(sym, [k * c for k, c in enumerate(sym)][1:]))[0]
    if ref_has_unit_circle_root([Fraction(c) for c in sym]):
        return IZVerdict(
            UNDECIDED,
            reason="support polynomial keeps non-cyclotomic unit-circle "
                   "roots; zeros at irrational points were not ruled out")
    return IZVerdict(
        EMPTY_CERTIFIED,
        reason="no residue class modulo the period %d consists entirely "
               "of transform zeros" % D)


def ref_fraction_gcd(a, b):
    """Monic gcd over Q of two nonzero Fraction polynomials, lowest degree
    first, by Euclid's algorithm."""
    while b:
        a = list(a)
        while len(a) >= len(b):
            c, k = a[-1] / b[-1], len(a) - len(b)
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a]


def ref_class_gcd(atoms):
    """The gcd over Q of the class polynomials f_r(y) = sum w y^q over the
    atoms at (r + D q) / D, D the common denominator, 0 <= r < D."""
    D = math.lcm(*(x.denominator for x, _ in atoms))
    classes = {}
    for x, w in atoms:
        q, r = divmod(int(x * D), D)
        classes.setdefault(r, {})[q] = w
    g = None
    for terms in classes.values():
        f = [terms.get(q, Fraction(0)) for q in range(min(terms), max(terms) + 1)]
        g = f if g is None else ref_fraction_gcd(g, f)
    return g


def ref_has_unit_circle_root(poly):
    """Whether a Fraction polynomial has a root of modulus 1, from its
    roots at 40 digits."""
    if len(poly) < 2:
        return False
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(poly)], maxsteps=400, extraprec=400)
        return any(abs(abs(z) - 1) < mpmath.mpf(10) ** -12 for z in roots)


def assert_iz_finite_matches_the_reference(m, atoms):
    """iz_finite(m) is what ref_iz_finite says, except that it may settle
    an undecided list as empty-certified: when the class polynomials have
    no common root on the unit circle, no class mod 1 is all zeros, though
    the whole support polynomial keeps irrational unit-circle roots."""
    got, want = iz_finite(m), ref_iz_finite(atoms)
    if want.kind == UNDECIDED and got.kind == EMPTY_CERTIFIED:
        assert not ref_has_unit_circle_root(ref_class_gcd(atoms))
        assert got.reason == ("no residue class modulo the period %d consists "
                              "entirely of transform zeros" % m.den)
    else:
        assert got == want
    return got


def ref_json(atoms):
    return [{"x": ref_frac_str(x), "w": ref_frac_str(w)} for x, w in atoms]


# ---------------------------------------------------------------------------
# random specs


@st.composite
def letters(draw, huge=False):
    """A letter with a signed scale; small scales get digits spanning up
    to three scales, so sums of different levels collide."""
    if huge:
        scale = draw(st.integers(10**6, 10**6 + 50))
        span = 12
    else:
        scale = draw(st.integers(2, 6))
        span = 3 * scale
    scale *= draw(st.sampled_from([1, -1]))
    digits = draw(st.lists(st.integers(-span, span), min_size=2, max_size=3,
                           unique=True))
    return AdmissiblePair(scale, tuple(digits))


@st.composite
def lattice_specs(draw):
    count = draw(st.integers(1, 3))
    alphabet = [draw(letters(huge=draw(st.integers(0, 4)) == 0))
                for _ in range(count)]
    ids = st.integers(1, count)
    prefix = tuple(draw(st.lists(ids, max_size=3)))
    tail = tuple(draw(st.lists(ids, min_size=1, max_size=3)))
    exponents = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    return ConvolutionSpec(tuple(alphabet), SymbolicWord(prefix, PeriodicTail(tail)),
                           PeriodicExponents(exponents))


HUGE = ConvolutionSpec(
    (AdmissiblePair(-(10**6 + 3), (0, 5, 11)), AdmissiblePair(3, (-4, 0, 7))),
    SymbolicWord((2,), PeriodicTail((1, 2))), PeriodicExponents((3, 1)))

windows = st.tuples(st.fractions(-2, 3, max_denominator=12),
                    st.fractions(Fraction(1, 12), 2, max_denominator=12)
                    ).map(lambda t: (t[0], t[0] + t[1]))


# ---------------------------------------------------------------------------
# properties


@given(lattice_specs(), st.integers(0, 8), windows,
       st.tuples(st.integers(0, 10**4), st.sampled_from([-1, 1]),
                 st.fractions(Fraction(1, 12), 2, max_denominator=12)))
@settings(max_examples=40, deadline=None)
@example(HUGE, 6, (Fraction(0), Fraction(1, 2)), (3, 1, Fraction(1, 2)))
def test_truncations_match_the_fraction_chain(spec, depth, window, touch):
    m, interval = spec.truncate_with_tail(depth)
    ref = ref_truncate(spec, depth)
    ref_interval = ref_tail_interval(spec, depth)
    assert m.atoms == ref
    assert m == AtomicMeasure.from_pairs(ref)
    assert _dumps(m) == json.dumps(ref_json(ref), sort_keys=True, indent=2)
    assert interval == ref_interval
    for j in (1, -1, 2, -2, 3, -3):
        assert overlap_mass(spec, j, depth) == ref_overlap(ref, ref_interval, j)
    # a random window, and two whose translate by k touches one atom's
    # cover exactly at its right or its left end
    index, k, width = touch
    x = ref[index % len(ref)][0]
    for w in (window, (x + ref_interval[1] - k, x + ref_interval[1] - k + width),
              (x + ref_interval[0] - k - width, x + ref_interval[0] - k)):
        assert (translate_disjoint_window(m, interval, w)
                == ref_window(ref, ref_interval, w))


def cli_truncate(spec, depth):
    """stdout of `spectral conv truncate` on the spec's JSON file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as handle:
            json.dump(spec.to_json(), handle)
        result = CliRunner().invoke(main, ["conv", "truncate", path, "--depth", str(depth)])
    assert result.exit_code == 0, result.output
    return result.stdout


def ref_stdout(spec, depth):
    payload = {"depth": depth, "atoms": ref_json(ref_truncate(spec, depth))}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@given(lattice_specs(), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
@example(HUGE, 6)
def test_truncate_prints_what_json_dumps_prints_of_the_reference(spec, depth):
    assert cli_truncate(spec, depth) == ref_stdout(spec, depth)


# (2, {0, d}) at depth 2 has the numerator 3d: 2^63 - 5 below the int64
# edge for the first d, 2^63 + 1 past it for the second
@pytest.mark.parametrize("digit", [3074457345618258601, 3074457345618258603])
@pytest.mark.parametrize("scale,sign", [(2, 1), (2, -1), (-2, 1)])
def test_numerators_at_the_int64_edge_stay_exact(digit, scale, sign):
    spec = ConvolutionSpec((AdmissiblePair(scale, (0, sign * digit)),),
                           SymbolicWord((), PeriodicTail((1,))), PeriodicExponents((1,)))
    ref = ref_truncate(spec, 2)
    assert spec.truncate(2).atoms == ref
    assert cli_truncate(spec, 2) == ref_stdout(spec, 2)
    for j in (1, -1):
        assert overlap_mass(spec, j, 2) == ref_overlap(ref, ref_tail_interval(spec, 2), j)


def test_the_huge_scale_example_passes_64_bit_numerators():
    m = HUGE.truncate(6)
    assert m.den > 2**63 and max(abs(n) for n in m.nums) > 2**63


def test_a_measure_is_its_values_in_read_only_arrays():
    m = AtomicMeasure(6, np.array([-5, 1, 7]), np.array([1, 2, 3]), 6)
    same = AtomicMeasure(6, np.array([-5, 1, 7], object), np.array([1, 2, 3], object), 6)
    assert m == same and m.atoms == same.atoms
    assert m != AtomicMeasure(6, np.array([-5, 1, 11]), np.array([1, 2, 3]), 6)
    big = AtomicMeasure(1, np.array([0, 2**64 + 1], object), np.array([1, 1], object), 2)
    assert big.nums.dtype == object and big == AtomicMeasure.from_pairs(big.atoms)
    with pytest.raises(TypeError):
        hash(m)
    for array in (m.nums, m.weights, big.nums):
        with pytest.raises(ValueError):
            array[0] = 0


@st.composite
def edge_pairs(draw):
    """Atoms, positions not always distinct, at numerators within 2^10 of
    +-2^62 over the denominators 1, 2, 3 and 6, with weights whose
    numerators are within 2^8 of 2^32: sums of two numerators pass 2^63,
    and so do products of two weight numerators."""
    count = draw(st.integers(1, 4))
    nums = draw(st.lists(st.integers(2**62 - 2**10, 2**62 + 2**10), min_size=count,
                         max_size=count))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 6]), min_size=count, max_size=count))
    raw = draw(st.lists(st.integers(2**32 - 2**8, 2**32 + 2**8), min_size=count,
                        max_size=count))
    if draw(st.booleans()):  # one position twice
        nums, signs, dens = nums + nums[:1], signs + signs[:1], dens + dens[:1]
        raw = raw + [draw(st.integers(2**32 - 2**8, 2**32 + 2**8))]
    return [(Fraction(s * n, d), Fraction(r, sum(raw)))
            for n, s, d, r in zip(nums, signs, dens, raw)]


@given(edge_pairs(), edge_pairs())
@settings(max_examples=60, deadline=None)
def test_convolve_and_from_pairs_stay_exact_past_the_int64_edge(a, b):
    point = ((Fraction(0), Fraction(1)),)
    ma, mb = AtomicMeasure.from_pairs(a), AtomicMeasure.from_pairs(b)
    assert ma.atoms == ref_convolve(a, point) and mb.atoms == ref_convolve(b, point)
    m = convolve(ma, mb)
    assert m.atoms == ref_convolve(a, b)
    assert m == AtomicMeasure.from_pairs(ref_convolve(a, b))


def test_iz_finite_gives_the_gcd_python_ints(monkeypatch):
    """The class polynomials h and h (y + 2), h = (y^2 + y + 1)(A y + B),
    have coefficients below 2^40, so the measure's arrays are int64, but h
    has coefficients past p/2, so the F_p gcd falls through to poly_gcd,
    whose pseudo-remainder products pass 2^63."""
    A, B = 2**35 + 7, 2**35 - 9
    h = [B, A + B, A + B, A]
    classes = (h, [2 * h[0]] + [2 * c + d for c, d in zip(h[1:], h)] + [h[-1]])
    total = sum(map(sum, classes))
    atoms = tuple(sorted((Fraction(r + 2 * q, 2), Fraction(w, total))
                         for r, f in enumerate(classes) for q, w in enumerate(f)))
    m = AtomicMeasure.from_pairs(atoms)
    assert m.weights.dtype == np.int64
    inputs = []
    # the package exports a function named cyclotomic, so import the module by name
    module = importlib.import_module("spectralconv.cyclotomic")
    real = module.poly_gcd
    monkeypatch.setattr(module, "poly_gcd", lambda a, b: inputs.append((a, b)) or real(a, b))
    got = assert_iz_finite_matches_the_reference(m, atoms)
    assert (got.kind, got.witness) == (NONEMPTY_WITNESS, Fraction(1, 3))
    assert inputs and all(type(c) is int for a, b in inputs for c in a + b)
    assert max(max(map(abs, a)) * max(map(abs, b)) for a, b in inputs) > 2**63


@given(st.sampled_from([insertion_target_five_sixths(), insertion_target_one_half()]),
       st.integers(0, 6), windows)
@settings(max_examples=30, deadline=None)
def test_limit_approximations_match_the_fraction_mixture(spec, depth, window):
    approx, interval = spec.limit_approximation(depth)
    ref, ref_interval = ref_limit_approximation(spec, depth)
    assert approx.atoms == ref and interval == ref_interval
    assert (translate_disjoint_window(approx, interval, window)
            == ref_window(ref, ref_interval, window))


@st.composite
def json_atom_lists(draw):
    """Distinct positions in [0, 2] over mixed denominators 1..6, and
    positive weights summing to 1, as JSON strings."""
    positions = draw(st.lists(
        st.builds(Fraction, st.integers(0, 12), st.integers(1, 6)).filter(lambda x: x <= 2),
        min_size=1, max_size=5, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(positions),
                        max_size=len(positions)))
    weights = [Fraction(r, sum(raw)) for r in raw]
    return [{"x": ref_frac_str(x), "w": ref_frac_str(w)} for x, w in zip(positions, weights)]


@given(json_atom_lists())
@settings(max_examples=50, deadline=None)
@example([{"x": "0", "w": "1/2"}, {"x": "1/2", "w": "1/2"}])
@example([{"x": str(Fraction(j, 5)), "w": str(Fraction(w, 49))}
          for j, w in enumerate((8, 8, 17, 8, 8))])
def test_iz_finite_matches_the_common_denominator_reference(data):
    m = AtomicMeasure.from_json(data)
    ref = tuple(sorted((Fraction(d["x"]), Fraction(d["w"])) for d in data))
    assert m.atoms == ref
    assert_iz_finite_matches_the_reference(m, ref)


@st.composite
def class_atom_lists(draw):
    """Atoms at (r + D q) / D for a few classes r mod D, q in -6..10, so
    classes repeat and positions go negative.  Each class polynomial is a
    random one times a factor with roots on the unit circle, most of them
    at roots of unity; in about half the draws every class takes the same
    factor, so the gcd of the class polynomials is not a constant."""
    factors = st.sampled_from([[1], [1], [1, 1], [1, 1, 1], [1, 0, 1],
                               [1, 0, 0, 1], [1, 2, 1], [2, 1, 2], [4, 4, 9, 4, 4]])
    D = draw(st.integers(1, 6))
    classes = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=3, unique=True))
    shared = draw(factors) if draw(st.booleans()) else None
    terms = {}
    for r in classes:
        low = draw(st.integers(-6, 3))
        h = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
        h[0] = h[0] or 1
        factor = shared or draw(factors)
        for i, a in enumerate(h):
            for j, c in enumerate(factor):
                if a * c:
                    x = Fraction(r + D * (low + i + j), D)
                    terms[x] = terms.get(x, 0) + a * c
    total = sum(terms.values())
    return tuple(sorted((x, Fraction(w, total)) for x, w in terms.items()))


@given(class_atom_lists())
@settings(max_examples=150, deadline=None)
@example(((Fraction(0), Fraction(2, 5)), (Fraction(3, 2), Fraction(1, 5)),
          (Fraction(3), Fraction(2, 5))))
def test_iz_finite_classes_match_the_reference_and_the_transform(atoms):
    m = AtomicMeasure.from_pairs(atoms)
    assert m.atoms == atoms
    got = assert_iz_finite_matches_the_reference(m, atoms)
    if got.kind == NONEMPTY_WITNESS:
        with mpmath.workdps(40):
            for k in range(m.den):
                xi = got.witness + k
                value = mpmath.fsum(mpmath.mpf(w.numerator) / w.denominator
                                    * mpmath.expjpi(-2 * mpmath.mpf((xi * x).numerator)
                                                    / (xi * x).denominator)
                                    for x, w in atoms)
                assert abs(value) < mpmath.mpf(10) ** -30
