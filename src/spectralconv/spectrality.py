"""Spectrality analysis for infinite convolutions.

Builds candidate frequency sets level by level, evaluates the completeness
function Q on grids with certified radii, decides integral periodic zero
sets exactly where possible, and combines everything into a verdict
pipeline.  Exact rules run first; numerics only ever produce evidence,
never a certified verdict.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .convolution import (
    ConvolutionSpec,
    DepthLimitError,
    PeriodicExponents,
    SparseInsertionSpec,
    depth_cap,
    detect_special,
    zero_set_window,
)
from .cyclotomic import cyclotomic_orders, screened_gcd, unit_circle_angles
from .hadamard import AdmissiblePair, first_spectrum, FIND_SPECTRA_SCALE_LIMIT
from .mask import COS_ULPS, IrrationalZeroPresent, eval_mask, mask_abs2, mask_zero_set
from .measures import TWO_PI_UPPER, AtomicMeasure, JsonRecord, frac_str
from .words import SymbolicWord, PeriodicTail

Rational = Union[int, Fraction]

_U = 2.0 ** -53

# q_partial runs the tree levels on the whole grid while it holds at most
# this many branches, then on point blocks of about this many at the widest
# level, which reuse five buffers of that many entries for their arrays.
_BLOCK_ENTRIES = 1 << 15

# q_partial sums each row in blocks of this many columns (``_row_sums``)
_SUM_BLOCK = 128

# q_partial multiplies at most this many tail levels past depth n before it
# takes |nu^|^2 from the tail fit; a branch still outside the fit's interval
# after them counts as [0, p], so the radius stays certified.
_MAX_TAIL = 64

# the tail fit interpolates at this many Chebyshev points in s = y^2, and
# multiplies at most _NODE_LEVELS levels per node value; (2/pi) log N + 1,
# below 2.47 at N = 10, bounds the Lebesgue constant of N first-kind points
# (Rivlin, An Introduction to the Approximation of Functions, 1969)
_FIT_NODES = 10
_NODE_LEVELS = 256
_LEBESGUE = 2.5

# the widest tail support the fit takes: its coefficient of s^i is at most
# 6^N lip (lip/16)^i (Chebyshev coefficients at most 2 lip, those of
# T_k(2t - 1) summing to T_k(3) < 6^k, t = s/y0^2, 1/y0^2 about lip/16),
# a float up to i = N - 1 while D <= 2^48
_MAX_TAIL_WIDTH = 2 ** 48

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


def _float_level(spec: ConvolutionSpec, k: int, spectrum: Sequence[int] = ()):
    """Level k's scale, with its exponent, and the offsets l/N of
    ``spectrum`` as floats; a ValueError names the level when either is
    past the float range."""
    pair = spec.pair_at(k)
    try:
        return (float(pair.scale ** spec.exponent_at(k)),
                np.array(spectrum, dtype=float) / pair.scale)
    except OverflowError:
        raise ValueError("level %d: its scale or spectrum is past the float "
                         "range of the Q sweep" % k) from None


def _level_weight(spec: ConvolutionSpec, k: int) -> int:
    """Integer multiplier for the level-k spectrum inside the radix sum."""
    pair = spec.pair_at(k)
    e = spec.exponent_at(k)
    return spec.cumulative_scale(k - 1) * pair.scale ** (e - 1)


def candidate_spectrum(spec: ConvolutionSpec, n: int) -> tuple[int, ...]:
    """The sorted mixed-radix frequency set of depth n: all sums

        l_1 + w_1 l_2 + w_1 w_2 ... l_n

    over l_k in the level-k spectrum translated to contain 0, where the
    weight for level k is the cumulative scale through level k-1 times
    scale_k^(exponent_k - 1).  The extra power keeps each level block
    orthogonal when a level repeats its base scale.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    sums = [0]
    for k in range(1, n + 1):
        w = _level_weight(spec, k)
        sums = [s + w * l for s in sums for l in _level_spectrum(spec.pair_at(k))]
    elements = tuple(sorted(set(sums)))
    if len(elements) != len(sums):
        raise ValueError(
            "level spectra collide: %d distinct sums, expected %d"
            % (len(elements), len(sums)))
    return elements


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
class QReport(JsonRecord):
    grid: tuple[float, ...]
    depth: int
    q_values: tuple[float, ...]
    radii: tuple[float, ...]
    tail_radius: float
    min_q: float
    max_q: float


@dataclass(frozen=True)
class _TailFit:
    """F_m(y) = |nu_m^(y)|^2 on |y| <= y0 as 1 - s P(s), s = y^2.

    nu_m is the measure of the levels after m, P a polynomial in powers
    of s (``coeffs``, highest first, for Horner's rule).  If the computed
    y is within delta of the true one and Y = |y| + delta <= y0, the value
    F from ``__call__`` is within quad * Y^2 + lip * delta * Y + u F of
    F_m(y), with ``lip`` the spec's (2 pi D)^2 from ``_TailFits`` and u F
    the rounding of the last subtraction.
    """
    coeffs: tuple[float, ...]
    quad: float

    def __call__(self, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """F_m at the branches whose squared positions are ``s``, into ``out`` if given."""
        f = np.multiply(s, self.coeffs[0], out=out)
        f += self.coeffs[1]
        for c in self.coeffs[2:]:
            f *= s
            f += c
        f *= s
        np.subtract(1.0, f, out=f)
        np.maximum(f, 0.0, out=f)
        return np.minimum(f, 1.0, out=f)


class _TailFits:
    """The tail fits of one spec, built once per level m on first use.

    With D = ``width``, the largest digit span over s_min - 1 (s_min the
    least level scale), every tail measure nu_m lies in an interval of
    length D: level k after m adds a digit set of span at most
    D (s_min - 1) divided by at least s_min^k.  So rho = nu_m * nu_m~ is
    a symmetric probability measure on [-D, D] and
    F_m(y) = int cos(2 pi y t) drho.  Write F_m = 1 - y^2 R(y^2).  From
    1 - cos a = a^2 int_0^1 (1-r) cos(ra) dr, the even function R(y^2) has
    k-th derivative at most lip^(k/2+1)/((k+1)(k+2)) with lip = (2 pi D)^2.
    P interpolates R at _FIT_NODES Chebyshev points of the first kind in s
    on [0, y0^2], the squares of 2 _FIT_NODES Chebyshev points in y on
    [-y0, y0].  Their node polynomial is at most 2 (y0/2)^(2N) in y, and
    at y0 = 2/(pi D) lip (y0/2)^2 = 4, so |R - P| <= 2 lip 2^(2N)/(2N+2)!.
    ``quad`` adds, in order:

    * the node errors times the Lebesgue constant of N first-kind points;
      a node error covers the rounding of the deficit product (each level
      deficit from ``MaskAbs2.deficit`` is relatively accurate, since
      pi k g |z| <= 2 at every node, so the product 1 - prod(1 - d_k) is
      too), the levels left out after it (1 - |nu^(z)|^2 <= 2 pi^2 z^2 D^2
      <= lip z^2) and the rounding of the node itself (each squared node
      within 21 u y0^2 of its Chebyshev point, |R'| <= lip^2/24 and
      lip y0^2 <= 16);
    * the rounding of the Chebyshev coefficients (each within its
      cosines' error times the node values) and of converting them to
      powers of s, exactly on integers, then once to floats;
    * Horner's rounding, gamma_2N times sum |c_i| y0^(2i), and the
      rounding of s = y^2 (|d(sR)/ds| <= lip).

    The Lipschitz term lip * delta * Y bounds F_m(y) - F_m(yhat), as
    |F_m'(y)| <= (2 pi)^2 D^2 |y|.
    """

    def __init__(self, spec: ConvolutionSpec):
        self.spec = spec
        span = max(max(pair.digits) - min(pair.digits) for pair in spec.alphabet)
        self.width = Fraction(span, spec.min_level_scale() - 1)
        if self.width > _MAX_TAIL_WIDTH:
            raise ValueError("tail support width %s is past 2^48, where the Q "
                             "tail fit would overflow a float" % frac_str(self.width))
        # y0 rounded down and lip rounded up; a branch stops at y_stop, so
        # that its |y| + delta and its rounded y^2 stay inside the fit
        self.y0 = math.nextafter(float(4 / (TWO_PI_UPPER * self.width)), 0.0)
        self.y_stop = self.y0 * (1.0 - 4.0 * _U)
        self.lip = math.nextafter(float((TWO_PI_UPPER * self.width) ** 2),
                                  math.inf)
        self._fits: dict[int, _TailFit] = {}

    def __call__(self, m: int) -> _TailFit:
        if m not in self._fits:
            self._fits[m] = self._build(m)
        return self._fits[m]

    def _build(self, m: int) -> _TailFit:
        spec, y0, lip, u, size = self.spec, self.y0, self.lip, _U, _FIT_NODES
        ys = [y0 * math.cos(math.pi * (2 * j + 1) / (4 * size))
              for j in range(size)]
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
                # z = y_j / scale correctly rounded; pi span |z| < 2, as
                # |z| <= y0/s, y0 <= 2/(pi D) and span <= D (s - 1) for
                # this level's scale s
                z = a / (b * scale)
                d = deficits[j]
                deficits[j] = d + kernel.deficit(z) * (1.0 - d)
                rest.append(lip * z * z)
            if depth == _NODE_LEVELS or all(
                    r <= u * d for r, d in zip(rest, deficits)):
                break
        # each step of D <- D + d (1 - D) adds at most its rounding of D
        # and its term's relative error times the term, and the terms sum
        # to D; y^2 and the division by it add two more
        rel = 1.01 * (term_ulps + depth + 8) * u
        values = [d / (y * y) for d, y in zip(deficits, ys)]
        node_err = max(v * rel + 1.01 * r / (y * y) + 14.0 * lip * u
                       for v, r, y in zip(values, rest, ys))
        # a_k = (2/N) sum_j R_j T_k(t_j), halved for k = 0, with
        # T_k(t_j) = cos(pi k (2j+1)/(2N)) reduced to [0, pi/2] first,
        # so each cosine is within 13u
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
        # powers of s, exactly on integers: in t = s/s0, s0 = y0^2 = (a/b)^2,
        # T_k(2t - 1) has integer coefficients (T_{k+1} = (4t - 2) T_k -
        # T_{k-1}, with T_{-1} = T_1) and the a_k share one power-of-two
        # denominator `den`, so with M_i = den sum_k a_k T_k[i] the
        # coefficient of s^i is M_i b^2i/(den a^2i), rounded once by int / int
        ratios = [c.as_integer_ratio() for c in cheb]
        den = max(d for _, d in ratios)
        exact = [0] * size
        prev, cur = [-1, 2], [1]
        for num, d in ratios:
            for i, c in enumerate(cur):
                exact[i] += num * (den // d) * c
            prev, cur = cur, [4 * up - 2 * c - old for up, c, old in
                              zip([0] + cur, cur + [0], prev + [0, 0])]
        a, b = y0.as_integer_ratio()
        horner = sum(abs(c) for c in exact) / den
        chain = 2 * size * u / (1 - 2 * size * u)
        quad = 1.01 * (2.0 * lip * 4 ** size / math.factorial(2 * size + 2)
                       + _LEBESGUE * node_err + coef_err + lip * u
                       + (chain + 2.0 * u) * horner)
        return _TailFit(tuple(exact[i] * b ** (2 * i) / (den * a ** (2 * i))
                              for i in reversed(range(size))), quad)


def _sum_depth(width: int) -> int:
    """Additions that any one term of a row of ``width`` terms passes
    through in ``_row_sums``, whatever order numpy adds a block in."""
    if width < _SUM_BLOCK:
        return (width - 1).bit_length()
    return _SUM_BLOCK + width // _SUM_BLOCK - 1


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of a 2-D array in a fixed blocked order.

    The leading whole blocks of _SUM_BLOCK columns are added blockwise
    into one block (at most width // _SUM_BLOCK - 1 additions per term),
    which numpy then sums (_SUM_BLOCK - 1 more at most); the rest of the
    row is summed on its own and added last.  A row under one block is
    summed pairwise: each round adds its second half onto its first.
    For nonnegative terms the result is within gamma of ``_sum_depth``
    of the true sum.
    """
    width = a.shape[1]
    full = width - width % _SUM_BLOCK
    if full:
        blocks = a[:, :full].reshape(len(a), full // _SUM_BLOCK, _SUM_BLOCK)
        out = blocks.sum(axis=1).sum(axis=1)
        if full < width:
            out += _row_sums(a[:, full:])
        return out
    while width > 1:
        half = (width + 1) // 2
        head = a[:, :half].copy()
        head[:, :width - half] += a[:, half:]
        a, width = head, half
    return a[:, 0]


class _SharedLevels:
    """The cosine tables of ``_q_partial_block``, once per level for all point
    blocks; lambda and the residues are int64 while exact, else Python ints."""

    def __init__(self, spec: ConvolutionSpec, xs: np.ndarray):
        self.spec, self.xs, self.lam, self.top = spec, xs, np.zeros(1, dtype=np.int64), 0
        self._levels: dict[int, tuple] = {}

    def add(self, k: int, spectrum: tuple[int, ...]) -> np.ndarray:
        """Extend lambda child-major by level k; table all but the last child."""
        w = _level_weight(self.spec, k)
        self.top += abs(w) * max(spectrum)
        if self.top >= 2 ** 62:
            self.lam = self.lam.astype(object)
        self.lam = np.add.outer(np.array(spectrum, self.lam.dtype) * w, self.lam).ravel()
        return self(k, self.lam[:len(self.lam) - len(self.lam) // len(spectrum)])[-1]

    def __call__(self, m: int, lam: Optional[np.ndarray] = None) -> tuple:
        """Level m's tables, over ``lam`` (else lambda_n), built on first use."""
        if m in self._levels:
            return self._levels[m]
        lam = self.lam if lam is None else lam
        kernel = mask_abs2(self.spec.pair_at(m).digits)
        c = abs(self.spec.cumulative_scale(m))
        freqs, coeffs = zip(*kernel.terms)
        exact = lam.dtype != object and c <= 2 ** 53 and (freqs[-1] + 1) * c < 2 ** 63
        r = np.multiply.outer(np.array(freqs, dtype=np.int64 if exact else object),
                              lam % c if exact else lam.astype(object) % c)
        turns = np.asarray(((r + c // 2) % c - c // 2) / c, dtype=float) * (2.0 * np.pi)
        a = np.multiply.outer(self.xs * (1 / c), 2.0 * np.pi * np.array(freqs, dtype=float))
        ulps = 1.01 * ((4 * COS_ULPS + 11.6) * (1.0 - kernel.coeffs[0]) + 2.03 * len(freqs) + 3.5)
        zero = 1.01 * ((2 * COS_ULPS + 10.5) * (1.0 - kernel.coeffs[0]) + 1.01 * len(freqs) + 3.5)
        theta = zero * _U if kernel.coeffs[0] < 0.5 else 0.0
        stretch = 1.0 / (1.0 - 2.0 * theta)
        coeffs = np.array(coeffs) * stretch
        ax = np.abs(self.xs)  # the last term bounds the underflow of xi * (1/|c_k|)
        err = ax * (stretch * 4.4 * _U * kernel.slope * (1 / c)) + stretch * (
            ulps * _U + theta + kernel.slope * 2.0 ** -1074 * (1.0 + float(ax.max())))
        self._levels[m] = (np.cos(a) * coeffs, np.sin(a) * coeffs, np.cos(turns),
                           np.sin(turns), (kernel.coeffs[0] - theta) * stretch, err)
        return self._levels[m]

    def factor(self, m: int, points, out: Optional[np.ndarray] = None,
               tmp: Optional[np.ndarray] = None) -> np.ndarray:
        """Level m's factors at rows ``points``, into ``out`` with ``tmp`` (else new arrays)."""
        rows_cos, rows_sin, cols_cos, cols_sin, const, _ = self(m)
        out = np.multiply(rows_cos[points, :1], cols_cos[0], out=out)
        tmp = np.empty_like(out) if tmp is None else tmp
        for t in range(len(cols_cos)):
            if t:
                out += np.multiply(rows_cos[points, t:t + 1], cols_cos[t], out=tmp)
            out -= np.multiply(rows_sin[points, t:t + 1], cols_sin[t], out=tmp)
        out += const
        return np.minimum(np.maximum(out, 0.0, out=out), 1.0, out=out)


def _view(buf: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """The head of the flat ``buf`` as a C-contiguous array of ``shape``;
    a new array where there is no buffer."""
    return np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)


def _walk_levels(levels: list, ks: range, budget_atoms: int, shared: _SharedLevels,
                 points: slice, branches: tuple, free: tuple = (None,) * 5) -> tuple:
    """Tree levels ``ks`` of ``_q_partial_block`` on the rows ``points``:
    ``branches`` is their (y, p, pruned mass, whether a level pruned), and
    a level that prunes keeps each row's budget_atoms heaviest branches.
    Its arrays go into the flat buffers ``free`` (``_view``), never into
    one that holds an array still to be read: y into the first, p into the
    third and fourth in turn, the other children, the pruned masses and a
    pruned y into the last, the rest into the second."""
    y, p, dropped, pruned = branches
    ybuf, work, pbuf, spare, heads = free
    npts = len(y)
    for k in ks:
        scale, offsets, kernel = levels[k - 1]
        # child-major: column l * width + j is child l of parent j
        width = p.shape[1]
        wide = (npts, len(offsets), width)
        y = np.divide(y, scale, out=_view(work, y.shape))
        y = np.add(y[:, None, :], offsets[:, None], out=_view(ybuf, wide)).reshape(npts, -1)
        head = _view(heads, (npts, y.shape[1] - width))
        head = kernel(y[:, :-width], head) if pruned else shared.factor(
            k, points, head, _view(work, head.shape))
        head = head.reshape(npts, -1, width)
        last = head.sum(axis=1, out=_view(work, (npts, width)))
        np.subtract(1.0, last, out=last)
        np.maximum(last, 0.0, out=last)
        # contiguous arrays: numpy broadcasts into a strided view far slower
        factor = _view(pbuf, wide)
        np.multiply(head, p[:, None, :], out=factor[:, :-1])
        np.multiply(last, p, out=factor[:, -1])
        p, pbuf, spare = factor.reshape(npts, -1), spare, pbuf  # p is in ``spare``
        if p.shape[1] > budget_atoms:
            pruned = True
            cut = p.shape[1] - budget_atoms
            order = np.argpartition(p, cut, axis=1)
            order += np.arange(0, p.size, p.shape[1])[:, None]
            # the indices are in range, and mode="raise" would buffer ``out``
            dropped += _row_sums(p.take(order[:, :cut], mode="clip", out=_view(heads, (npts, cut))))
            p = p.take(order[:, cut:], mode="clip", out=_view(pbuf, (npts, budget_atoms)))
            pbuf, spare = spare, pbuf
            y = y.take(order[:, cut:], mode="clip", out=_view(heads, (npts, budget_atoms)))
    return y, p, dropped, pruned


def _q_partial_block(spec: ConvolutionSpec, n: int, tol: float,
                     budget_atoms: int, levels: list, first: int,
                     branches: tuple, delta: np.ndarray, ybound: np.ndarray,
                     kernel_err: np.ndarray, widest: int, tails: _TailFits,
                     shared: _SharedLevels, points: slice,
                     free: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Certified Q_n enclosures (value, radius) for a block of grid points.

    Each branch carries its position y = (xi + lambda)/c_k, updated as
    y <- y/s_k^e_k + l/s_k, and its mass p = prod_k |m_k(y_k)|^2; a factor
    is the series a_0 + sum_f a_f cos(2 pi f y) of ``MaskAbs2.terms``,
    clamped to [0, 1].  ``levels`` holds each level's (scale, offsets,
    kernel), ``delta``, ``ybound`` and ``kernel_err`` the points' bounds
    at level n (see ``q_partial``), ``points`` the block's rows of
    ``shared``, ``branches`` those rows after the levels before ``first``
    and ``free`` the buffers of ``_walk_levels``, which every block reuses.
    The true Q_n(xi) is the sum over leaves of p times F_m(y) =
    |nu_m^(y)|^2, with nu_m the measure of the levels after the last one
    multiplied, m.  The radius has three parts:

    * pruned mass: branches dropped to keep budget_atoms per point add
      their mass as an interval [0, p] of full width;
    * tail: past level n, a point multiplies further levels until every
      branch has |y| + delta <= y0 = 2/(pi D), D = ``_TailFits.width``,
      and the bound of the fit there is at most tol/4; each branch then
      takes F_m from the level-m ``_TailFit``, whose error bound enters
      the radius.  A branch still past y0 after _MAX_TAIL levels adds its
      mass as [0, p], like pruned mass;
    * rounding: every factor is within a bound e_k of the true one (below).
      A factor's error enters the result times the computed factors before
      it (at most its parent's mass, as they lie in [0, 1]) and the true
      sum G_l in [0, 1] below its child l (the level factors over a
      spectrum sum to 1).  By that identity the last child's factor is 1
      minus the others' sum, clamped at 0: with eps_l their errors and
      rho <= #L u the rounding, the parent's error is
      sum eps_l (G_l - G_last) + rho G_last, and at most sum |eps_l| + rho
      when the clamp fires.  The masses of a level sum to at most 1, so
      level k adds (#L_k - 1) e_k + #L_k u and a tail level e_k.
      Products, sums and the final arithmetic add Higham's gamma bounds
      on the mass; the rows are summed in blocks (``_row_sums``), so a
      sum of w terms adds gamma of ``_sum_depth(w)``, about
      _SUM_BLOCK + w/_SUM_BLOCK, not of w.

    After a prune e_k is the ``MaskAbs2`` bound given ``delta``.  Before,
    a column holds one lambda at every point and ``_SharedLevels`` gives
    term f as a_f (cos A_f cos B_f - sin A_f sin B_f), A_f = 2 pi f xi/|c_k|,
    B_f = 2 pi r/|c_k|, r = f lambda mod |c_k| in [-|c_k|/2, |c_k|/2].  An
    entry w sums the products with c_f = s a_f, then c_0 = s (a_0 - theta),
    s = 1/(1 - 2 theta), in a fixed order and is clamped to [0, 1].  With
    eta = 2 COS_ULPS u, each (cos, sin) is within eta plus its angle's error
    as a vector: 7.5 u for B_f (r/|c_k| rounded once), 4.4 u |A_f| plus
    underflow for A_f ((xi (1/|c_k|)) (2 pi f)).  By Cauchy-Schwarz a term is
    within a_f (2 eta + 7.5 u + |dA_f|); c_f and the products add 4.1 u a_f,
    the 2T additions 2.03 T u, c_0 1.5 u, s - 1 != 2 theta s 2 u.  With E
    their sum, w is within s E of s (F - theta), and the clamped w within
    e_k = s (E + theta) of the true F, free of ``delta``.  At xi = 0,
    A_f = 0, so E <= E_0 (eta + 10.5 u per unit of a_f, T additions) = theta:
    mask zeros give 0, y = 0 gives 1 and Q_n(0) = 1 stays exact.  Two digits
    have no middle child and 1/2 + 1/2 = 1 exactly, so theta = 0 there.

    Every point's row is computed on its own, so the result does not
    depend on how the grid is split into blocks.
    """
    y, p, dropped, pruned = _walk_levels(levels, range(first, n + 1), budget_atoms,
                                         shared, points, branches, free)
    npts = len(y)
    delta, ybound, kernel_err = delta.copy(), ybound.copy(), kernel_err.copy()
    # largest |computed y| per point; dividing every y by a scale divides
    # it exactly the same way, since rounding is monotonic
    far = np.maximum(y.max(axis=1), -y.min(axis=1))
    last = np.full(npts, n)
    rows = slice(None)
    m = n
    while True:
        reach = far[rows] + delta[rows]
        going = reach > tails.y_stop
        if not going.all():
            going |= reach * (tails(m).quad * reach + tails.lip * delta[rows]) \
                > tol / 4.0
        if not going.all():
            rows = np.arange(npts)[rows][going]
        if m == n + _MAX_TAIL or not going.any():
            break
        m += 1
        last[rows] = m
        scale, _ = _float_level(spec, m)
        kernel = mask_abs2(spec.pair_at(m).digits)
        y[rows] /= scale
        far[rows] /= abs(scale)
        delta[rows] = (delta[rows] + 2.01 * _U * (ybound[rows] + delta[rows])) \
            / abs(scale)
        ybound[rows] /= abs(scale)
        # y and p are in neither the walk's second buffer nor, unpruned, its last
        out = _view(free[1], (len(delta[rows]), p.shape[1]))
        if pruned:
            p[rows] *= kernel(y[rows], out)
            kernel_err[rows] += kernel.error(delta[rows], ybound[rows])
        else:
            index = np.arange(points.start, points.stop)[rows]
            p[rows] *= shared.factor(m, index, out, _view(free[-1], out.shape))
            kernel_err[rows] += shared(m)[-1][index]
    if going.any():
        # past _MAX_TAIL: branches still outside the fit count as [0, p]
        outside = np.abs(y[rows]) + delta[rows, None] > tails.y_stop
        mass = p[rows]
        dropped[rows] += _row_sums(np.where(outside, mass, 0.0))
        mass[outside] = 0.0
        p[rows] = mass
        y[rows] = np.where(outside, 0.0, y[rows])
    inside = _row_sums(p)
    fitted = np.empty(npts)
    moment = np.empty(npts)
    quad = np.empty(npts)
    stops = set(last.tolist())
    for stop in stops:
        sel = slice(None) if len(stops) == 1 else np.flatnonzero(last == stop)
        fit = tails(stop)
        s = y[sel]
        np.square(s, out=s)
        mass = p[sel]
        f = fit(s, _view(free[1], s.shape))
        s *= mass
        moment[sel] = _row_sums(s)
        f *= mass
        fitted[sel] = _row_sums(f)
        quad[sel] = fit.quad
    # sum p Y^2 <= sum p y^2 + delta (2 y0 + delta) sum p, as |y| <= y0;
    # the 1% covers the rounding of the masses, the sums and this bound
    tail = 1.01 * (quad * (moment + delta * (2.0 * tails.y0 + delta) * inside)
                   + tails.lip * delta * tails.y0 * inside)
    # Higham's gamma_k = k u/(1 - k u) bounds k chained roundings: blocked
    # sums of at most `widest` terms (the pruned ones also pass through n
    # accumulations), the rounded products per branch (one per level and
    # one by F_m, whose own rounding adds one more), 8 final operations.
    # The 1% covers the rounding in computing the bound itself.
    chain = 3 * _sum_depth(widest) + 2 * (last + 1) + 8
    rounding = 1.01 * (kernel_err + chain * _U / (1.0 - chain * _U)
                       * (inside + dropped))
    value = fitted + dropped / 2.0
    radius = dropped / 2.0 + tail + rounding
    return value, radius


def q_partial(spec: ConvolutionSpec, n: int, grid: Sequence,
              tol: float = 1e-6, budget_atoms: int = 16384) -> QReport:
    """Q_n on a grid: certified enclosures q +- r of the completeness sum

        Q_n(xi) = sum over lambda in candidate_spectrum(spec, n) of
                  |mu^(xi + lambda)|^2,

    which is nondecreasing in n and at most 1.  Each level factor is the
    cosine series |m_B(y)|^2 = 1/#B + sum_{d>0} (2 mult(d)/#B^2) cos(2 pi d y),
    from tables shared by the grid until the first prune and from the
    ``MaskAbs2`` kernel after it; a last child takes 1 minus its siblings'.
    Each radius covers the pruned mass (at most budget_atoms branches per
    point are kept), the tail (at most tol/4 of the mass: each branch
    takes |nu_m^(y)|^2 from one certified polynomial fit per tail level m
    on |y| <= 2/(pi D), D the support width of the tail measures) and
    float rounding, with every row summed in a fixed blocked order; see
    ``_q_partial_block``.  Level constants, tables and error bounds through
    level n are computed once for the grid, and so are the tree levels
    while the grid holds at most _BLOCK_ENTRIES branches; point blocks of
    about _BLOCK_ENTRIES branches at the widest level then carry on in turn,
    all writing their arrays into one set of buffers made for this call.
    """
    if n < 1:
        raise ValueError("depth must be at least 1")
    if n > depth_cap():
        raise DepthLimitError(n, depth_cap())
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive")
    if budget_atoms < 1:
        raise ValueError("budget_atoms must be at least 1")
    xs = np.array([float(x) for x in grid], dtype=float)
    if len(xs) == 0:
        raise ValueError("grid must be nonempty")
    # per point: bound on |true y|, bound on |computed y - true y| and
    # summed kernel error bound, all functions of |xi| alone
    ybound = np.abs(xs) * (1.0 + 2.0 * _U)
    delta = np.abs(xs) * (1.01 * _U)
    kernel_err = np.zeros(len(xs))
    tails = _TailFits(spec)
    levels = []
    widest = columns = 1
    grid_levels = 0  # levels with at most _BLOCK_ENTRIES branches on the whole grid
    shared = _SharedLevels(spec, xs)
    for k in range(1, n + 1):
        pair = spec.pair_at(k)
        spectrum = _level_spectrum(pair)
        scale, offsets = _float_level(spec, k, spectrum)
        offset_max = max(spectrum) / abs(pair.scale)
        delta = delta / abs(scale) + 3.02 * _U * (
            (ybound + delta) / abs(scale) + offset_max)
        ybound = ybound / abs(scale) + offset_max
        kernel = mask_abs2(pair.digits)
        pruned = columns > budget_atoms  # as the blocks will have: no shared lambda
        err = kernel.error(delta, ybound) if pruned else shared.add(k, spectrum)
        kernel_err += (len(spectrum) - 1) * err + len(spectrum) * _U
        levels.append((scale, offsets, kernel))
        columns = min(columns, budget_atoms) * len(spectrum)
        widest = max(widest, columns)
        grid_levels += len(xs) * widest <= _BLOCK_ENTRIES
    y, p, dropped, pruned = _walk_levels(
        levels, range(1, grid_levels + 1), budget_atoms, shared, slice(0, len(xs)),
        (xs.reshape(-1, 1), np.ones((len(xs), 1)), np.zeros(len(xs)), False))
    per_block = max(1, _BLOCK_ENTRIES // widest)
    # the blocks' own buffers, apart from the rows above that wait for them
    free = tuple(np.empty(min(per_block, len(xs)) * widest) for _ in range(5))
    parts = []
    for block in np.array_split(np.arange(len(xs)), -(-len(xs) // per_block)):
        cut = slice(block[0], block[-1] + 1)
        parts.append(_q_partial_block(
            spec, n, tol, budget_atoms, levels, grid_levels + 1,
            (y[cut], p[cut], dropped[cut], pruned), delta[cut], ybound[cut],
            kernel_err[cut], widest, tails, shared, cut, free))
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
class IZVerdict(JsonRecord):
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


def iz_finite(m: AtomicMeasure) -> IZVerdict:
    """Exact integral periodic zero set of a finite rational measure.

    Write each atom as (r + D q) / D, D the common denominator and 0 <= r < D.
    Then mu^(xi + k) = sum_r e(-r k / D) e(-r xi / D) f_r(e(-xi)), f_r(y) the
    sum of w y^q over the atoms of class r: a DFT in k = 0..D-1, and mu^ has
    period D, so xi + Z is all zeros exactly when e(-xi) is a root of every
    f_r, that is of g = gcd_r f_r.  The cyclotomic factors of g give the
    rational members; a leftover factor with roots on the unit circle would
    put members at irrational points and leave the answer open.
    """
    D, classes = m.den, {}  # r -> (least q, coefficients of f_r from that q)
    for n, w in zip(m.nums.tolist(), m.weights.tolist()):
        q, r = divmod(n, D)
        low, coeffs = classes.setdefault(r, (q, []))  # the nums ascend, so q does too
        coeffs += [0] * (q - low - len(coeffs)) + [w]
    g, *rest = sorted((coeffs for _, coeffs in classes.values()), key=len)
    for f in rest:
        g = g if len(g) == 1 else screened_gcd(g, f)
    orders, residual = cyclotomic_orders(g) if len(g) > 1 else ([], g)
    if orders:  # the least phase j/n, gcd(j, n) = 1, of a root of g
        witness = Fraction(1, max(orders))
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
    (0, 1).  Each state's zeros in [-1, 1] are listed once, and a child
    outside its state's list (0 always is) dies at translate 0; deaths
    unwind to explicit translates.  Members are certified by the
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
        window = zero_set_window(spec, 0, 1)
    except IrrationalZeroPresent as exc:
        return IZVerdict(
            UNDECIDED,
            reason="a level mask has zeros at irrational points (%s); the "
                   "candidate list would be incomplete" % exc)
    candidates = [z for z in window if 0 < z < 1]
    if not candidates:
        return IZVerdict(
            EMPTY_CERTIFIED,
            reason="the transform has no zeros inside (0, 1), so no "
                   "residue class can consist of zeros")
    repeats = isinstance(spec.word.tail, PeriodicTail) and spec.exponents.bounded()
    # specs[i] is tail i; succ[i] indexes the first state equal to tail i + 1
    specs, index, succ = [spec], {spec: 0}, []
    # windows[j]: state j's zeros in [-1, 1]; the states share one complete alphabet
    windows = {0: set(window)}
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
            if succ[i] not in windows:
                windows[succ[i]] = set(zero_set_window(specs[-1], 0, 1))
        j, s = succ[i], specs[i].level_scale(1)
        zeros = mask_zero_set(specs[i].pair_at(1).digits).rational
        out = []
        for r in range(abs(s)):
            y = (xi + r) / s
            if zeros.contains(y):
                continue
            fl = math.floor(y)
            child = (j, y - fl)
            if child not in seen and y - fl not in windows[j]:
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


@dataclass(frozen=True)
class WindowCertificate(JsonRecord):
    ok: bool
    mass_lower: Fraction
    translates_checked: tuple[int, ...]
    blocking: tuple[tuple[int, Fraction], ...]
    reason: str


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
    D, nums = approx.den, approx.nums.tolist()
    k_lo = math.floor(approx.support_min() + lo_t - b) + 1
    k_hi = math.ceil(approx.support_max() + hi_t - a) - 1
    checked = tuple(k for k in range(k_lo, k_hi + 1) if k)
    blocking: list[tuple[int, Fraction]] = []
    for k in checked:
        # atoms x = N / D whose closed cover [x+lo_t, x+hi_t] meets (a+k, b+k)
        left = bisect_right(nums, (a + k - hi_t) * D)
        right = min(bisect_left(nums, (b + k - lo_t) * D), left + 8 - len(blocking))
        blocking.extend((k, Fraction(n, D)) for n in nums[left:right])
    # atoms whose whole cover lies inside (a, b)
    mass = approx.mass_in(a - lo_t, b - hi_t)
    if blocking:
        reason = ("support cover reaches translate(s) %s of the window"
                  % ", ".join(sorted({"%+d" % k for k, _ in blocking})))
        return WindowCertificate(False, mass, checked, tuple(blocking), reason)
    if mass == 0:
        return WindowCertificate(
            False, mass, checked, (),
            "no atom's cover fits strictly inside the window; the mass "
            "lower bound is 0")
    return WindowCertificate(
        True, mass, checked, (),
        "mass at least %s inside the window; all %d intersecting integer "
        "translates miss the support cover"
        % (frac_str(mass), len(checked)))


@dataclass(frozen=True)
class VerdictBudget:
    """``run_q`` gates the Q grid of ``spectral_verdict`` and of a catalog
    example, which runs ``q_partial`` at ``depth`` on ``VERDICT_GRID``
    with its default tolerance and atom budget; ``depth`` (capped to 2..6)
    and ``window`` set the sparse-insertion window certificate.  No other
    rule reads them."""

    run_q: bool = True
    depth: int = 12
    window: Optional[tuple[Rational, Rational]] = None


# the points j/64, j = 0..63, on which the verdict and the examples take Q
VERDICT_GRID = tuple(Fraction(j, 64) for j in range(64))


@dataclass(frozen=True)
class SpectralReport(JsonRecord):
    verdict: str
    reason: str
    trace: tuple[str, ...]
    details: dict = field(default_factory=dict)
    q_report: Optional[QReport] = None
    iz: Optional[IZVerdict] = None


def _limit_tail_spec(spec: ConvolutionSpec) -> ConvolutionSpec:
    """The weak limit of the shifted tails of a spec whose tail is
    periodic: the tail after the prefix, with its exponent rule minus the
    head (which comes only before a constant pattern, so levels stay aligned)."""
    limit = spec.tail(len(spec.word.prefix))
    return ConvolutionSpec(spec.alphabet, SymbolicWord((), limit.word.tail),
                           PeriodicExponents(limit.exponents.pattern))


def _family_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Theorem 1.6: two letters of one scale stretch * base, digits
    {0, ..., base - 1} and that set times a step coprime to base, constant
    exponent 1 (``detect_special``).  Every word is spectral at stretch
    >= 2; at stretch 1 exactly those constant on the scaled letter or using
    the consecutive letter infinitely often are."""
    family = detect_special(spec)
    if family is None:
        return None, None, ["no two-letter special family structure"], {}
    spectral = family.spectral(spec.word)
    shape = {"stretch": family.stretch, "base": family.base, "step": family.step}
    line = ("two-letter family detected: stretch %(stretch)d, base %(base)d, "
            "step %(step)d; classifier says " % shape
            + ("Spectral" if spectral else "NotSpectral"))
    return ("SpectralCertified" if spectral else "NotSpectralCertified",
            "special-family-classifier", [line], {"details": {"family": shape}})


def _admissibility_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Every rule below assumes each occurring pair admissible, so a pair
    without a chosen spectrum and without any found by search blocks
    certification.  Up to FIND_SPECTRA_SCALE_LIMIT the search is
    exhaustive, so finding nothing proves the pair inadmissible; above it
    the question stays open."""
    for letter in sorted(spec.word.occurring_letters()):
        pair = spec.alphabet[letter - 1]
        if pair.spectrum is None and abs(pair.scale) > FIND_SPECTRA_SCALE_LIMIT:
            gap = "has no known spectrum; admissibility is open"
        elif pair.spectrum is None and first_spectrum(pair.scale, pair.digits) is None:
            gap = "is not admissible: exhaustive search finds no spectrum"
        else:
            continue
        return ("Inconclusive", "pair-admissibility-unknown",
                ["pair (%d, %s) %s" % (pair.scale, list(pair.digits), gap)], {})
    return None, None, [], {}


def _unbounded_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Admissible levels with exponents that have no bound: along a
    subsequence on which they grow, the shifted tails converge weakly to the
    point mass at 0, whose transform has no zero, so that weak limit has an
    empty integral periodic zero set and the criterion certifies."""
    if spec.exponents.bounded():
        return None, None, [], {}
    return ("SpectralCertified", "unbounded-exponent-tail-collapse",
            ["exponent sequence unbounded; shifted tails collapse to the "
             "point mass at 0, whose zero set is empty"], {})


def _gcd_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Admissible levels whose digit differences have the same gcd d over
    the letters that recur as over all that occur.  Anchoring each letter
    at 0 shifts the measure by a convergent constant, and dividing all
    digits by d keeps every level admissible with the same unitary matrix
    (spectrum d L), so the measure is affinely equivalent to one whose
    tails all have difference gcd 1.  The cyclic limit of that measure's
    shifted tails then has empty integral periodic zero set, which
    certifies spectrality, and affine maps carry it back."""
    d_tail, d_all = (gcd(*(b - spec.alphabet[k - 1].digits[0]
                           for k in letters for b in spec.alphabet[k - 1].digits))
                     for letters in (spec.word.recurring_letters(),
                                     spec.word.occurring_letters()))
    if d_all != d_tail:
        return None, None, ["difference-gcd reduction does not apply"], {}
    note = ("digit differences of every tail already have gcd 1" if d_tail == 1
            else "digit differences have gcd %d at every position; anchoring "
                 "and dividing by %d reduces to the gcd 1 case" % (d_tail, d_tail))
    return ("SpectralCertified", "tail-difference-gcd", [note],
            {"details": {"difference_gcd": d_tail}})


def _periodic_limit_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Admissible levels, bounded exponents and a periodic tail: the
    shifted tails converge to the rotations of ``_limit_tail_spec``, and an
    empty integral periodic zero set of it (``iz_weak_limit``) certifies.
    A tail that never repeats has every word over its recurring letters as
    a weak limit, so no one spec stands for them."""
    if not isinstance(spec.word.tail, PeriodicTail):
        return None, None, ["no limit tail checked: a tail that never repeats "
                            "has every word over its recurring letters as a "
                            "weak limit"], {}
    iz = iz_weak_limit(_limit_tail_spec(spec))
    lines = ["limit tail = periodic tail beyond the prefix",
             "zero set of the limit tail: %s (%s)" % (iz.kind, iz.reason)]
    verdict = "SpectralCertified" if iz.kind == EMPTY_CERTIFIED else None
    return verdict, "empty-periodic-zero-set", lines, {"iz": iz}


def _grid_q_rule(spec: ConvolutionSpec, budget: VerdictBudget):
    """Evidence, never a certificate: the measure is spectral exactly when
    Q is 1 everywhere, and ``q_partial`` at the budget's depth on
    ``VERDICT_GRID`` sees finitely many points.  Q at least _EVIDENCE_Q_MIN
    with radius at most _EVIDENCE_RADIUS_MAX gives SpectralEvidence."""
    if not budget.run_q:
        return None, None, ["grid Q skipped by budget"], {}
    try:
        q_report = q_partial(spec, budget.depth, VERDICT_GRID)
    except ValueError as exc:
        return None, None, ["grid Q unavailable: %s" % exc], {}
    evidence = (q_report.min_q >= _EVIDENCE_Q_MIN
                and q_report.tail_radius <= _EVIDENCE_RADIUS_MAX)
    return ("SpectralEvidence" if evidence else None, "q-grid-evidence",
            ["grid Q at depth %d: min %.6f, max radius %.2e"
             % (q_report.depth, q_report.min_q, q_report.tail_radius)],
            {"q_report": q_report})


def _window_rule(spec: SparseInsertionSpec, budget: VerdictBudget):
    """Along the restarts just after an insertion the shifted tails converge
    to a two-part limit.  Say an open window has positive limit mass and
    null integer translates (``translate_disjoint_window`` on
    ``limit_approximation`` at the budget's depth capped to 2..6).  At a
    common zero xi of the transform's integer translates the measure
    exp(-2 pi i xi x) d(limit) periodizes to 0, so it is null on the
    window, which it cannot be: the integral periodic zero set is empty and
    spectrality is certified.  A failed certificate proves nothing."""
    depth = max(2, min(budget.depth, 6))
    approx, tail_iv = spec.limit_approximation(depth)
    lo, hi = budget.window or (spec.target - Fraction(1, 5), math.ceil(spec.target))
    window = (Fraction(lo), Fraction(hi))
    cert = translate_disjoint_window(approx, tail_iv, window)
    bounds = [frac_str(w) for w in window]
    lines = ["insertion positions follow the triangular numbers; the shifted "
             "tails converge to a two-part limit measure",
             "window (%s, %s) at depth %d: %s" % (*bounds, depth, cert.reason)]
    fields = {"details": {"window": bounds, "depth": depth,
                          "certificate": cert.to_json()}}
    if cert.ok:
        return "SpectralCertified", "window-disjoint-translates", lines, fields
    return "Inconclusive", "window-certificate-failed", lines, fields


# The rules of each spec type, in the order the verdict tries them.  A rule
# returns (verdict or None, reason, trace lines, SpectralReport fields).
_RULES = {
    ConvolutionSpec: (_family_rule, _admissibility_rule, _unbounded_rule,
                      _gcd_rule, _periodic_limit_rule, _grid_q_rule),
    SparseInsertionSpec: (_window_rule,),
}


def spectral_verdict(spec, budget: Optional[VerdictBudget] = None
                     ) -> SpectralReport:
    """Walk the spec type's ``_RULES``, exact arguments first and numerics
    last, to the first verdict; the report keeps every trace line and
    field gathered on the way.  No verdict ends Inconclusive,
    ``budget-exhausted``.  Only exact arguments certify; grid evidence
    gives at most SpectralEvidence."""
    if budget is None:
        budget = VerdictBudget()
    if isinstance(spec, ConvolutionSpec):
        if budget.window is not None:
            raise ValueError("a window applies to insertion specs only")
        if budget.run_q and budget.depth < 1:
            raise ValueError("depth must be at least 1")
    elif not isinstance(spec, SparseInsertionSpec):
        raise TypeError("expected a ConvolutionSpec or SparseInsertionSpec")
    trace, fields = [], {}
    for rule in _RULES[type(spec)]:
        verdict, reason, lines, found = rule(spec, budget)
        trace += lines
        fields.update(found)
        if verdict is not None:
            return SpectralReport(verdict, reason, tuple(trace), **fields)
    return SpectralReport("Inconclusive", "budget-exhausted", tuple(trace), **fields)
