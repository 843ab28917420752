"""Spectrality analysis for infinite convolutions.

Builds candidate frequency sets level by level, evaluates the completeness
function Q on grids with certified radii, decides integral periodic zero
sets exactly where possible, and combines everything into a verdict
pipeline.  Exact branches run first; numerics only ever produce evidence,
never a certified verdict.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .convolution import (
    ConstantExponents,
    ConvolutionSpec,
    ExplicitExponents,
    PeriodicExponents,
    SparseInsertionSpec,
    detect_special,
    zero_set_window,
)
from .cyclotomic import cyclotomic_orders, unit_circle_angles
from .hadamard import AdmissiblePair, first_spectrum, FIND_SPECTRA_SCALE_LIMIT
from .mask import IrrationalZeroPresent, eval_mask, mask_abs2, mask_zero_set
from .measures import TWO_PI_UPPER, AtomicMeasure, frac_str
from .words import SymbolicWord, PeriodicTail

Rational = Union[int, Fraction]

_U = 2.0 ** -53

# q_partial cuts its grid into point blocks of about this many branches,
# so no temporary of a level holds more than a few times that many
# entries.
_BLOCK_ENTRIES = 1 << 15

# q_partial multiplies at most this many tail levels past depth n; the
# radius stays certified when the tail bound has not reached tol/2 by then.
_MAX_TAIL = 64

# the least value and the largest radius at which grid Q counts as evidence
_EVIDENCE_Q_MIN = 1.0 - 1e-3
_EVIDENCE_RADIUS_MAX = 1e-6


def _level_spectrum(pair: AdmissiblePair) -> tuple[int, ...]:
    """Chosen spectrum of a pair, translated so it contains 0."""
    if pair.spectrum is None:
        raise ValueError(
            "pair (%d, %s) has no chosen spectrum; run find_spectra or "
            "validate the spec first" % (pair.scale, list(pair.digits)))
    lo = min(pair.spectrum)
    return tuple(l - lo for l in pair.spectrum)


@dataclass(frozen=True)
class CandidateSpectrum:
    """Mixed-radix frequency set built from per-level spectra.

    Element k of ``levels`` is the level-(k+1) spectrum translated to
    contain 0, and ``elements`` is the set of all sums

        l_1 + w_1 l_2 + w_1 w_2 ... l_n

    where the weight for level k is the cumulative scale through level
    k-1 times scale_k^(exponent_k - 1).  The extra power keeps each level
    block orthogonal when a level repeats its base scale.
    """
    levels: tuple[tuple[int, ...], ...]
    n: int
    elements: tuple[int, ...]

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.elements, value)
        return i < len(self.elements) and self.elements[i] == value


def _level_weight(spec: ConvolutionSpec, k: int) -> int:
    """Integer multiplier for the level-k spectrum inside the radix sum."""
    pair = spec.pair_at(k)
    e = spec.exponent_at(k)
    return spec.cumulative_scale(k - 1) * pair.scale ** (e - 1)


def candidate_spectrum(spec: ConvolutionSpec, n: int) -> CandidateSpectrum:
    if n < 1:
        raise ValueError("depth must be at least 1")
    levels = []
    sums = [0]
    for k in range(1, n + 1):
        spectrum = _level_spectrum(spec.pair_at(k))
        levels.append(spectrum)
        w = _level_weight(spec, k)
        sums = [s + w * l for s in sums for l in spectrum]
    expected = 1
    for spectrum in levels:
        expected *= len(spectrum)
    elements = tuple(sorted(set(sums)))
    if len(elements) != expected:
        raise ValueError(
            "level spectra collide: %d distinct sums, expected %d"
            % (len(elements), expected))
    return CandidateSpectrum(tuple(levels), n, elements)


def q_exact_discrete(scale: int, digits: Sequence[int],
                     spectrum: Sequence[int], xi) -> float:
    """Sum of |mask((xi + l)/scale)|^2 over the spectrum.

    Equals 1 for every xi whenever (scale, digits, spectrum) is
    admissible; that identity is what makes the level-by-level tree in
    q_partial conserve mass.  A float xi is taken at its exact value.
    """
    xi = Fraction(xi)
    return sum(abs(eval_mask(digits, (xi + l) / scale)) ** 2
               for l in spectrum)


@dataclass(frozen=True)
class QReport:
    grid: tuple[float, ...]
    depth: int
    q_values: tuple[float, ...]
    radii: tuple[float, ...]
    tail_radius: float
    min_q: float
    max_q: float

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "grid": list(self.grid),
            "q_values": list(self.q_values),
            "radii": list(self.radii),
            "tail_radius": self.tail_radius,
            "min_q": self.min_q,
            "max_q": self.max_q,
        }


def _q_partial_block(spec: ConvolutionSpec, n: int, xs: np.ndarray,
                     tol: float, budget_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Certified Q_n enclosures (value, radius) for a block of grid points.

    Each branch carries its position y = (xi + lambda)/c_k, updated as
    y <- y/s_k^e_k + l/s_k, and its mass p = prod_k |m_k(y_k)|^2.  The
    factor is the cosine series of ``mask.MaskAbs2``,

        |m_B(y)|^2 = 1/#B + sum_{d>0} (2 mult(d)/#B^2) cos(2 pi d y),

    clamped to [0, 1].  The true Q_n(xi) is the sum over leaves of p times
    |nu^(y)|^2, with nu the measure of the levels after the last one
    multiplied.  The radius has three parts:

    * pruned mass: branches dropped to keep budget_atoms per point add
      their mass as an interval [0, p] of full width;
    * tail: 1 - |nu^(y)|^2 <= 2 pi^2 y^2 diam(supp nu)^2, from
      1 - cos t <= t^2/2, with diam <= 2h for h = support_halfwidth();
      levels are multiplied per point until this is at most tol/2 on
      every branch, so it takes at most a tol/2 share of the mass;
    * rounding: every kernel value is within its ``MaskAbs2`` bound e_k,
      given the bound ``delta`` carried on the error of y.  A factor's
      error enters the result times the computed factors before it (at
      most its parent's mass, as they lie in [0, 1]) and the true factors
      after it (summing to at most 1 over the branches below, as the
      level factors over a spectrum sum to 1).  The masses of a level sum
      to at most 1, so level k adds e_k * #L_k and a tail level e_k.
      Products, sums and the final arithmetic add Higham's gamma bounds
      on the mass.

    Every point's row is computed on its own, so the result does not
    depend on how the grid is split into blocks.
    """
    npts = len(xs)
    y = xs.reshape(npts, 1).copy()
    p = np.ones_like(y)
    # per point: bound on |true y|, bound on |computed y - true y|, summed
    # kernel error bound and pruned mass
    ybound = np.abs(xs) * (1.0 + 2.0 * _U)
    delta = np.abs(xs) * (1.01 * _U)
    kernel_err = np.zeros(npts)
    dropped = np.zeros(npts)
    widest = 1
    for k in range(1, n + 1):
        pair = spec.pair_at(k)
        scale = float(pair.scale ** spec.exponent_at(k))
        spectrum = _level_spectrum(pair)
        offsets = np.array(spectrum, dtype=float) / pair.scale
        offset_max = max(spectrum) / abs(pair.scale)
        y = ((y / scale)[:, :, None] + offsets).reshape(npts, -1)
        widest = max(widest, y.shape[1])
        delta = delta / abs(scale) + 3.02 * _U * (
            (ybound + delta) / abs(scale) + offset_max)
        ybound = ybound / abs(scale) + offset_max
        kernel = mask_abs2(pair.digits)
        kernel_err += len(spectrum) * (
            kernel.slope * (delta + 3.1 * _U * (ybound + delta))
            + kernel.rounding * _U)
        factor = kernel(y)
        factor.reshape(npts, -1, len(spectrum))[...] *= p[:, :, None]
        p = factor
        if p.shape[1] > budget_atoms:
            cut = p.shape[1] - budget_atoms
            order = np.argpartition(p, cut, axis=1)
            order += np.arange(0, p.size, p.shape[1])[:, None]
            dropped += p.take(order[:, :cut]).sum(axis=1)
            p = p.take(order[:, cut:])
            y = y.take(order[:, cut:])
    # 2 pi^2 (2h)^2, rounded up past the three roundings of each use
    tail_c = float(2 * TWO_PI_UPPER ** 2 * spec.support_halfwidth() ** 2) \
        * (1.0 + 8.0 * _U)
    # largest |computed y| per point; dividing every y by a scale divides
    # it exactly the same way, since rounding is monotonic
    far = np.maximum(y.max(axis=1), -y.min(axis=1))
    rows = slice(None)
    m = n
    while m < n + _MAX_TAIL:
        reach = far[rows] + delta[rows]
        going = tail_c * reach * reach > tol / 2.0
        if not going.any():
            break
        if not going.all():
            rows = np.arange(npts)[rows][going]
        m += 1
        pair = spec.pair_at(m)
        scale = float(pair.scale ** spec.exponent_at(m))
        kernel = mask_abs2(pair.digits)
        y[rows] /= scale
        far[rows] /= abs(scale)
        p[rows] *= kernel(y[rows])
        delta[rows] = (delta[rows] + 2.01 * _U * (ybound[rows] + delta[rows])) \
            / abs(scale)
        ybound[rows] /= abs(scale)
        kernel_err[rows] += (
            kernel.slope * (delta[rows] + 3.1 * _U * (ybound[rows] + delta[rows]))
            + kernel.rounding * _U)
    shortfall = np.abs(y)
    shortfall += delta[:, None]
    shortfall *= shortfall
    shortfall *= tail_c
    np.minimum(shortfall, 1.0, out=shortfall)
    shortfall *= p
    shortfall = shortfall.sum(axis=1)
    inside = p.sum(axis=1)
    # Higham's gamma_k = k u/(1 - k u) bounds k chained roundings: sums of
    # at most `widest` terms (the pruned ones also pass through n
    # accumulations), m rounded products per branch, 8 final operations.
    # The 1% covers the rounding in computing the bound itself.
    chain = 3 * widest + 2 * m + 8
    rounding = 1.01 * (kernel_err + chain * _U / (1.0 - chain * _U)
                       * (inside + dropped))
    value = inside + (dropped - shortfall) / 2.0
    radius = (dropped + shortfall) / 2.0 + rounding
    return value, radius


def q_partial(spec: ConvolutionSpec, n: int, grid: Sequence,
              tol: float = 1e-6, budget_atoms: int = 16384) -> QReport:
    """Q_n on a grid: certified enclosures q +- r of the completeness sum

        Q_n(xi) = sum over lambda in candidate_spectrum(spec, n) of
                  |mu^(xi + lambda)|^2,

    which is nondecreasing in n and at most 1.  Each level factor is the
    cosine series |m_B(y)|^2 = 1/#B + sum_{d>0} (2 mult(d)/#B^2) cos(2 pi d y).
    Each radius covers the pruned mass (at most budget_atoms branches per
    point are kept), the quadratic tail bound 2 pi^2 y^2 diam^2 (at most
    tol/4 of the mass) and float rounding; see ``_q_partial_block``.  Point
    blocks of about _BLOCK_ENTRIES branches run in turn.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive")
    if budget_atoms < 1:
        raise ValueError("budget_atoms must be at least 1")
    xs = np.array([float(x) for x in grid], dtype=float)
    if len(xs) == 0:
        raise ValueError("grid must be nonempty")
    widest = columns = 1
    for k in range(1, n + 1):
        columns = min(columns, budget_atoms) * len(_level_spectrum(spec.pair_at(k)))
        widest = max(widest, columns)
    per_block = max(1, _BLOCK_ENTRIES // widest)
    parts = [_q_partial_block(spec, n, block, tol, budget_atoms)
             for block in np.array_split(xs, -(-len(xs) // per_block))]
    value = np.concatenate([v for v, _ in parts])
    radius = np.concatenate([r for _, r in parts])
    return QReport(
        grid=tuple(float(x) for x in xs),
        depth=n,
        q_values=tuple(float(v) for v in value),
        radii=tuple(float(r) for r in radius),
        tail_radius=float(radius.max()),
        min_q=float(value.min()),
        max_q=float(value.max()),
    )


EMPTY_CERTIFIED = "empty-certified"
EMPTY_UP_TO_HORIZON = "empty-up-to-horizon"
NONEMPTY_WITNESS = "nonempty-witness"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class IZVerdict:
    """Outcome of an integral periodic zero set computation.

    kind is one of the module constants above.  A nonempty witness always
    carries the smallest member of the zero set in (0, 1) together with a
    reason string describing the certificate that covers every integer
    translate.
    """
    kind: str
    witness: Optional[Fraction] = None
    horizon: Optional[int] = None
    reason: str = ""

    def to_json(self) -> dict:
        out = {"kind": self.kind, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = frac_str(self.witness)
        if self.horizon is not None:
            out["horizon"] = self.horizon
        return out


def iz_finite(m: AtomicMeasure) -> IZVerdict:
    """Exact integral periodic zero set of a finite rational measure.

    The transform has period D, the common denominator of the atom
    positions, so membership reduces to one residue class being made
    entirely of zeros.  Zeros come from the cyclotomic factors of the
    weighted support polynomial; leftover factors with roots on the unit
    circle would sit at irrational points and leave the answer open.
    """
    D, pmin = m.den, m.nums[0]
    coeffs = [0] * (m.nums[-1] - pmin + 1)
    for n, w in zip(m.nums, m.weights):
        coeffs[n - pmin] = w
    orders, residual = cyclotomic_orders(coeffs)
    # the zeros D j / order in [0, D), j prime to order, are distinct; over
    # L = lcm(orders), a class mod 1 is all zeros when it holds D numerators
    L = math.lcm(*orders)
    counts = Counter(D * j * (L // order) % L for order in orders
                     for j in range(1, order + 1) if gcd(j, order) == 1)
    complete = [r for r, count in counts.items() if count == D]
    if complete:
        witness = Fraction(min(complete), L)
        return IZVerdict(
            NONEMPTY_WITNESS, witness=witness,
            reason="transform has period %d and vanishes on %s plus every "
                   "integer offset 0..%d" % (D, frac_str(witness), D - 1))
    if unit_circle_angles(residual):
        return IZVerdict(
            UNDECIDED,
            reason="support polynomial keeps non-cyclotomic unit-circle "
                   "roots; zeros at irrational points were not ruled out")
    return IZVerdict(
        EMPTY_CERTIFIED,
        reason="no residue class modulo the period %d consists entirely "
               "of transform zeros" % D)


def _spread(dead: dict, parents: dict) -> dict:
    """Run deaths back along the edges of the zero graph, in place.  A
    child dead at translate k' kills each parent node at k = base + s k',
    with base = r - s floor((xi + r)/s), so that (xi + k)/s = child + k'.
    A child without a killer (a frontier assumed dead) passes on none."""
    queue = list(dead)
    for child in queue:
        for node, base, s in parents.get(child, ()):
            if node not in dead:
                dead[node] = None if dead[child] is None else base + s * dead[child]
                queue.append(node)
    return dead


def iz_weak_limit(spec_or_measure, horizon: int = 64) -> IZVerdict:
    """Integral periodic zero set of an infinite convolution (or atom list).

    xi in (0, 1) is in Z(nu) iff for every r mod |s|, s the first level
    scale, the first mask vanishes at (xi + r)/s or frac((xi + r)/s) is in
    Z(tail(1)).  Nodes (tail state, xi), states compared by equality, form
    a graph that is finite for eventually periodic words and exponents; Z
    is its greatest fixed point.  The roots are the rational zeros in
    (0, 1); a child that is 0 or no zero of its tail dies at translate 0,
    and deaths unwind to explicit translates.  Members are certified by the
    fixed point itself, a closed set of nodes.  Tails that never repeat stop
    at depth ``horizon``: kills found with that frontier alive, and members
    closed with it dead, are certified.
    """
    if isinstance(spec_or_measure, AtomicMeasure):
        return iz_finite(spec_or_measure)
    spec = spec_or_measure
    if not isinstance(spec, ConvolutionSpec):
        raise TypeError("expected a ConvolutionSpec or AtomicMeasure")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    try:
        candidates = [z for z in zero_set_window(spec, 0, Fraction(1)) if 0 < z < 1]
    except IrrationalZeroPresent as exc:
        return IZVerdict(
            UNDECIDED,
            reason="a level mask has zeros at irrational points (%s); the "
                   "candidate list would be incomplete" % exc)
    if not candidates:
        return IZVerdict(
            EMPTY_CERTIFIED,
            reason="the transform has no zeros inside (0, 1), so no "
                   "residue class can consist of zeros")
    repeats = isinstance(spec.word.tail, PeriodicTail) and spec.exponents.bounded()
    # specs[i] is tail i; succ[i] indexes the first state equal to tail i + 1
    specs, index, succ = [spec], {spec: 0}, []
    kills, parents = {}, {}
    todo = [(0, f) for f in candidates]
    seen = set(todo)
    for node in todo:
        i, xi = node
        if i >= horizon and not repeats:
            continue
        if i == len(succ):
            specs.append(specs[i].tail(1))
            succ.append(index.setdefault(specs[-1], i + 1))
        j, s = succ[i], specs[i].level_scale(1)
        zeros = mask_zero_set(specs[i].pair_at(1).digits).rational
        out = []
        for r in range(abs(s)):
            y = (xi + r) / s
            if zeros.contains(y):
                continue
            fl = math.floor(y)
            child = (j, y - fl)
            if child not in seen and (fl == y or not specs[j].transform_zero_at(y - fl)):
                kills[node] = r - s * fl
                break
            out.append((child, r - s * fl))
        else:
            for child, base in out:
                parents.setdefault(child, []).append((node, base, s))
                if child not in seen:
                    seen.add(child)
                    todo.append(child)
    killed = _spread(kills, parents)
    frontier = dict.fromkeys(n for n in seen if n[0] >= horizon and not repeats)
    closed = sorted(seen - _spread({**frontier, **killed}, parents).keys())
    members = [x for i, x in closed if i == 0]
    if members:
        groups: dict[int, list[str]] = {}
        for i, x in closed:
            groups.setdefault(i, []).append(frac_str(x))
        return IZVerdict(
            NONEMPTY_WITNESS, witness=members[0],
            reason="all translates of %s are zeros: the nodes %s are closed "
                   "under x -> frac((x + r)/s) into the next tail, for every "
                   "r mod |s| at which the tail's first mask (scale s) misses "
                   "(x + r)/s" % (frac_str(members[0]), ", ".join(
                       "{%s} at tail %d" % (", ".join(xs), i)
                       for i, xs in groups.items())))
    undecided = [frac_str(f) for f in candidates if (0, f) not in killed]
    if undecided:
        return IZVerdict(
            EMPTY_UP_TO_HORIZON, horizon=horizon,
            reason="candidates %s are neither killed nor closed within %d "
                   "tail levels; membership undecided"
                   % (", ".join(undecided), horizon))
    return IZVerdict(
        EMPTY_CERTIFIED,
        reason="every candidate has a certified nonzero translate: "
               + "; ".join("%s dies at translate %+d" % (frac_str(f), killed[0, f])
                           for f in candidates))


def _letter_difference_gcd(spec: ConvolutionSpec,
                           letters: Sequence[int]) -> int:
    g = 0
    for letter in letters:
        digits = spec.alphabet[letter - 1].digits
        base = digits[0]
        for b in digits[1:]:
            g = gcd(g, b - base)
    return g


@dataclass(frozen=True)
class WindowCertificate:
    ok: bool
    mass_lower: Fraction
    translates_checked: tuple[int, ...]
    blocking: tuple[tuple[int, Fraction], ...]
    reason: str

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "mass_lower": frac_str(self.mass_lower),
            "translates_checked": list(self.translates_checked),
            "blocking": [[k, frac_str(x)] for k, x in self.blocking],
            "reason": self.reason,
        }


def translate_disjoint_window(approx: AtomicMeasure,
                              tail_interval: tuple[Fraction, Fraction],
                              window: tuple[Rational, Rational]
                              ) -> WindowCertificate:
    """Certify positive mass in an open window whose translates are null.

    The atoms plus the exact tail interval give a closed cover of the
    limit support.  The certificate holds when some atoms sit with their
    whole cover inside the window while no atom's cover meets any integer
    translate of the window.  Boundary contact with an open translate
    does not block, which is what makes exactly-touching supports pass.
    """
    a, b = Fraction(window[0]), Fraction(window[1])
    if not a < b:
        raise ValueError("window must be a nonempty open interval")
    lo_t, hi_t = Fraction(tail_interval[0]), Fraction(tail_interval[1])
    if lo_t > hi_t:
        raise ValueError("tail interval is inverted")
    D, nums = approx.den, approx.nums
    k_lo = math.floor(approx.support_min() + lo_t - b) + 1
    k_hi = math.ceil(approx.support_max() + hi_t - a) - 1
    checked = []
    blocking: list[tuple[int, Fraction]] = []
    for k in range(k_lo, k_hi + 1):
        if k == 0:
            continue
        checked.append(k)
        # atoms x = N / D whose closed cover [x+lo_t, x+hi_t] meets (a+k, b+k)
        left = bisect_right(nums, (a + k - hi_t) * D)
        right = min(bisect_left(nums, (b + k - lo_t) * D), left + 8 - len(blocking))
        blocking.extend((k, Fraction(n, D)) for n in nums[left:right])
    # atoms whose whole cover lies inside (a, b)
    mass = approx.mass_in(a - lo_t, b - hi_t)
    if blocking:
        reason = ("support cover reaches translate(s) %s of the window"
                  % ", ".join(sorted({"%+d" % k for k, _ in blocking})))
        return WindowCertificate(False, mass, tuple(checked),
                                 tuple(blocking), reason)
    if mass == 0:
        return WindowCertificate(
            False, mass, tuple(checked), (),
            "no atom's cover fits strictly inside the window; the mass "
            "lower bound is 0")
    return WindowCertificate(
        True, mass, tuple(checked), (),
        "mass at least %s inside the window; all %d intersecting integer "
        "translates miss the support cover"
        % (frac_str(mass), len(checked)))


SPECTRAL = "Spectral"
NOT_SPECTRAL = "NotSpectral"


def classify_special(t: int, base: int, step: int, word: SymbolicWord,
                     consecutive_letter: int = 1,
                     scaled_letter: int = 2) -> str:
    """Exact spectrality classification for the two-letter family.

    The consecutive letter stands for the digit set {0..base-1}, the
    scaled letter for its step-scaled copy; both live at scale t*base
    with gcd(base, step) = 1.  For stretch t >= 2 every word gives a
    spectral measure.  For t = 1 the measure is spectral exactly when
    the word is constant on the scaled letter or uses the consecutive
    letter infinitely often; otherwise the limit is a piecewise density
    that fails to be uniform on its support.
    """
    if t < 1 or base < 2 or step < 2:
        raise ValueError("need stretch >= 1 and base, step >= 2")
    if gcd(base, step) != 1:
        raise ValueError("base and step must be coprime")
    if t >= 2:
        return SPECTRAL
    if word.is_constant(scaled_letter):
        return SPECTRAL
    if word.occurs_infinitely(consecutive_letter):
        return SPECTRAL
    return NOT_SPECTRAL


@dataclass(frozen=True)
class VerdictBudget:
    """``run_q`` gates the Q grid of ``spectral_verdict`` and of a catalog
    example; ``depth``, ``grid``, ``tol`` and ``budget_atoms`` go to
    ``q_partial``; ``depth`` (capped to 2..6) and ``window`` set the
    sparse-insertion window certificate.  No exact branch reads them."""

    run_q: bool = True
    depth: int = 12
    grid: int = 64
    tol: float = 1e-6
    budget_atoms: int = 16384
    window: Optional[tuple[Rational, Rational]] = None


def budget_q_partial(spec: ConvolutionSpec, budget: VerdictBudget) -> QReport:
    """q_partial at the budget's depth on its grid j/grid, j = 0..grid-1."""
    grid = [Fraction(j, budget.grid) for j in range(budget.grid)]
    return q_partial(spec, budget.depth, grid, tol=budget.tol,
                     budget_atoms=budget.budget_atoms)


@dataclass(frozen=True)
class SpectralReport:
    verdict: str
    reason: str
    trace: tuple[str, ...]
    details: dict = field(default_factory=dict)
    q_report: Optional[QReport] = None
    iz: Optional[IZVerdict] = None

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "reason": self.reason,
            "trace": list(self.trace),
            "details": self.details,
        }
        if self.q_report is not None:
            out["q_report"] = self.q_report.to_json()
        if self.iz is not None:
            out["iz"] = self.iz.to_json()
        return out


def _admissibility_gap(spec: ConvolutionSpec) -> Optional[str]:
    """Reason string when some occurring pair is not known admissible.

    Every certified branch below leans on the levels being admissible,
    so a pair without a chosen spectrum and without any found by search
    blocks certification outright.  Up to FIND_SPECTRA_SCALE_LIMIT the
    search is exhaustive, so finding nothing there proves the pair
    inadmissible; above it the question stays open.
    """
    for letter in sorted(spec.word.occurring_letters()):
        pair = spec.alphabet[letter - 1]
        if pair.spectrum is not None:
            continue
        if abs(pair.scale) > FIND_SPECTRA_SCALE_LIMIT:
            return ("pair (%d, %s) has no known spectrum; admissibility "
                    "is open" % (pair.scale, list(pair.digits)))
        if first_spectrum(pair.scale, pair.digits) is None:
            return ("pair (%d, %s) is not admissible: exhaustive search "
                    "finds no spectrum" % (pair.scale, list(pair.digits)))
    return None


def _gcd_branch(spec: ConvolutionSpec) -> Optional[tuple[int, str]]:
    """Certified branch from the digit difference gcds.

    Fires when the gcd over letters that recur equals the gcd over all
    letters that occur.  Anchoring each letter at 0 shifts the measure by
    a convergent constant, and dividing all digits by the common gcd d
    keeps every level admissible with the same unitary matrix (spectrum
    d L), so the measure is affinely equivalent to one whose tails all
    have difference gcd 1.  The cyclic limit of that measure's shifted
    tails then has empty integral periodic zero set, which certifies
    spectrality, and affine maps carry it back.
    """
    d_tail = _letter_difference_gcd(
        spec, sorted(spec.word.recurring_letters()))
    if d_tail == 0:
        return None
    d_all = _letter_difference_gcd(
        spec, sorted(spec.word.occurring_letters()))
    if d_all != d_tail:
        return None
    if d_tail == 1:
        return 1, "digit differences of every tail already have gcd 1"
    return d_tail, (
        "digit differences have gcd %d at every position; anchoring and "
        "dividing by %d reduces to the gcd 1 case" % (d_tail, d_tail))


def _limit_exponents(rule):
    if isinstance(rule, ExplicitExponents):
        return ConstantExponents(rule.then)
    if isinstance(rule, (ConstantExponents, PeriodicExponents)):
        return rule
    raise ValueError("exponent rule has no bounded limit")


def _limit_tail_spec(spec: ConvolutionSpec) -> tuple[ConvolutionSpec, str]:
    """A weak limit of the shifted tail convolutions, as a concrete spec.

    For a periodic tail the limit is literally the tail itself.  For
    sampled or enumerated tails, every finite pattern over the recurring
    letters keeps reappearing, so shifts accumulate on the periodic cycle
    of those letters; that cycle is the representative limit used here.
    """
    tail_rule = spec.word.tail
    if isinstance(tail_rule, PeriodicTail):
        limit = spec.tail(len(spec.word.prefix))
        word = SymbolicWord((), limit.word.tail)
        note = "limit tail = periodic tail beyond the prefix"
    else:
        pattern = tuple(sorted(spec.word.recurring_letters()))
        word = SymbolicWord((), PeriodicTail(pattern))
        note = ("limit tail = cycle over recurring letters %s"
                % (pattern,))
    limit_spec = ConvolutionSpec(spec.alphabet, word,
                                 _limit_exponents(spec.exponents))
    return limit_spec, note


def _sparse_window_verdict(spec: SparseInsertionSpec,
                           budget: VerdictBudget) -> SpectralReport:
    trace = ["insertion positions follow the triangular numbers; the "
             "shifted tails converge to a two-part limit measure"]
    depth = max(2, min(budget.depth, 6))
    approx, tail_iv = spec.limit_approximation(depth)
    if budget.window is not None:
        window = (Fraction(budget.window[0]), Fraction(budget.window[1]))
    else:
        window = (spec.target - Fraction(1, 5),
                  Fraction(math.ceil(spec.target)))
    cert = translate_disjoint_window(approx, tail_iv, window)
    trace.append("window (%s, %s) at depth %d: %s"
                 % (frac_str(window[0]), frac_str(window[1]), depth,
                    cert.reason))
    details = {
        "window": [frac_str(window[0]), frac_str(window[1])],
        "depth": depth,
        "certificate": cert.to_json(),
    }
    if cert.ok:
        return SpectralReport(
            "SpectralCertified", "window-disjoint-translates",
            tuple(trace), details)
    return SpectralReport(
        "Inconclusive",
        "window-certificate-failed", tuple(trace), details)


def spectral_verdict(spec, budget: Optional[VerdictBudget] = None
                     ) -> SpectralReport:
    """Run the verdict pipeline: exact branches first, numerics last.

    Certified verdicts only come from exact arguments (the two-letter
    family classifier, unbounded exponents collapsing the tails, the
    difference-gcd reduction, an empty periodic zero set, or a window
    certificate).  Grid evidence can at most report SpectralEvidence.
    """
    if budget is None:
        budget = VerdictBudget()
    if isinstance(spec, SparseInsertionSpec):
        return _sparse_window_verdict(spec, budget)
    if not isinstance(spec, ConvolutionSpec):
        raise TypeError("expected a ConvolutionSpec or SparseInsertionSpec")
    trace = []

    family = detect_special(spec)
    if family is not None:
        outcome = classify_special(family.stretch, family.base, family.step,
                                   spec.word, family.consecutive_letter,
                                   family.scaled_letter)
        trace.append("two-letter family detected: stretch %d, base %d, "
                     "step %d; classifier says %s"
                     % (family.stretch, family.base, family.step, outcome))
        verdict = ("SpectralCertified" if outcome == SPECTRAL
                   else "NotSpectralCertified")
        return SpectralReport(verdict, "special-family-classifier",
                              tuple(trace),
                              {"family": {
                                  "stretch": family.stretch,
                                  "base": family.base,
                                  "step": family.step}})
    trace.append("no two-letter special family structure")

    gap = _admissibility_gap(spec)
    if gap is not None:
        trace.append(gap)
        return SpectralReport("Inconclusive", "pair-admissibility-unknown",
                              tuple(trace))

    if not spec.exponents.bounded():
        trace.append("exponent sequence unbounded; shifted tails collapse "
                     "to the point mass at 0, whose zero set is empty")
        return SpectralReport("SpectralCertified",
                              "unbounded-exponent-tail-collapse",
                              tuple(trace))

    branch = _gcd_branch(spec)
    if branch is not None:
        d, note = branch
        trace.append(note)
        return SpectralReport("SpectralCertified", "tail-difference-gcd",
                              tuple(trace), {"difference_gcd": d})
    trace.append("difference-gcd reduction does not apply")

    limit_spec, note = _limit_tail_spec(spec)
    trace.append(note)
    iz = iz_weak_limit(limit_spec)
    trace.append("zero set of the limit tail: %s (%s)" % (iz.kind, iz.reason))
    if iz.kind == EMPTY_CERTIFIED:
        return SpectralReport("SpectralCertified", "empty-periodic-zero-set",
                              tuple(trace), {}, None, iz)

    q_report = None
    if budget.run_q:
        try:
            q_report = budget_q_partial(spec, budget)
            trace.append("grid Q at depth %d: min %.6f, max radius %.2e"
                         % (q_report.depth, q_report.min_q,
                            q_report.tail_radius))
            if (q_report.min_q >= _EVIDENCE_Q_MIN
                    and q_report.tail_radius <= _EVIDENCE_RADIUS_MAX):
                return SpectralReport("SpectralEvidence", "q-grid-evidence",
                                      tuple(trace), {}, q_report, iz)
        except ValueError as exc:
            trace.append("grid Q unavailable: %s" % exc)
    else:
        trace.append("grid Q skipped by budget")
    return SpectralReport("Inconclusive", "budget-exhausted", tuple(trace),
                          {}, q_report, iz)
