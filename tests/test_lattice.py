"""Integer-lattice measures against the per-atom Fraction reference.

`AtomicMeasure` keeps positions as integer numerators over one common
denominator and weights as integers over their total.  The reference
below is the Fraction code it replaced: the per-level `convolve` chain
behind `ConvolutionSpec.truncate`, the support cover of
`truncate_with_tail`, the bisect `overlap_mass`, the mixture behind
`SparseInsertionSpec.limit_approximation`, `translate_disjoint_window`
and `iz_finite` with its hand-built common denominators.  Every result
must match it exactly, and `conv truncate` must print what `json.dumps`
prints of the reference atoms.
"""

import json
import math
import os
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectralconv.catalog import (
    insertion_target_five_sixths,
    insertion_target_one_half,
)
from spectralconv.cli import main
from spectralconv.convolution import (
    ConvolutionSpec,
    PeriodicExponents,
    overlap_mass,
)
from spectralconv.cyclotomic import cyclotomic_orders, degree, unit_circle_angles
from spectralconv.hadamard import AdmissiblePair
from spectralconv.measures import AtomicMeasure
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


def ref_iz_finite(atoms):
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
    orders, residual = cyclotomic_orders(coeffs)
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
    if degree(residual) > 0 and len(unit_circle_angles(residual)) > 0:
        return IZVerdict(
            UNDECIDED,
            reason="support polynomial keeps non-cyclotomic unit-circle "
                   "roots; zeros at irrational points were not ruled out")
    return IZVerdict(
        EMPTY_CERTIFIED,
        reason="no residue class modulo the period %d consists entirely "
               "of transform zeros" % D)


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
    assert m.to_records().tolist() == [(d["w"], d["x"]) for d in ref_json(ref)]
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
    assert iz_finite(m) == ref_iz_finite(ref)
