"""Seeded input generators for the three benchmark workloads.

Each workload is a fixed list of ``spectral`` operations ("a pass").  The
seed picks digit sets, lifts, prefixes and sample points from families
whose outcome is known from the mathematics, so the program only ever
receives spec files and argv, and the checker knows what to expect.
Cost-relevant sizes (scales, digit counts, depths, grid sizes, spans)
are fixed per position in the pass so that every seed does the same
amount of work.

``qgrid`` and ``exact`` reuse the same inputs on every pass (the mask
zero-set cache stays hot); ``search`` draws fresh inputs for every pass
(the cache misses).
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("qgrid", "exact", "search")
FRESH_INPUTS_PER_PASS = {"qgrid": False, "exact": False, "search": True}
# Seconds one pass took when the benchmark was added, on the 2-vCPU Xeon VM
# described in the README.  A run makes round(seconds / nominal) passes, so
# a run does the same work on every commit and a faster program makes a
# shorter run.
NOMINAL_PASS_S = {"qgrid": 10.0, "exact": 2.5, "search": 2.5}

CERTIFIED = ("SpectralCertified", "NotSpectralCertified")


@dataclass
class Op:
    """One ``spectral`` invocation and what its output is checked against."""
    kind: str
    argv: list
    ok_codes: tuple = (0,)
    expect: dict = field(default_factory=dict)


def _pair(scale, digits, spectrum=None):
    out = {"n": scale, "b": list(digits)}
    if spectrum is not None:
        out["l"] = list(spectrum)
    return out


class _Writer:
    """Writes spec files under ``root`` and hands back their relative paths."""

    def __init__(self, root: str, tag: str):
        self.root = root
        self.tag = tag
        self.count = 0
        os.makedirs(os.path.join(root, "specs"), exist_ok=True)

    def write(self, data) -> str:
        self.count += 1
        rel = os.path.join("specs", "%s-%02d.json" % (self.tag, self.count))
        with open(os.path.join(self.root, rel), "w") as handle:
            json.dump(data, handle, sort_keys=True)
        return rel


def _odd(rng, lo, hi):
    return rng.choice([v for v in range(lo, hi + 1) if v % 2])


# ---------------------------------------------------------------------------
# qgrid: Q evidence


def _survivor_spec(rng):
    """Three letters at scale 2: {0,1}, {0,3a}, {0,3b} with the word
    1 ... (2 3)^inf.  Digit gcd over the tail is 3 but 1 overall, so the
    gcd branch cannot fire; the zero candidates 1/3, 2/3 of the limit
    tail survive every translate, so the pipeline runs out of exact
    branches (Inconclusive without Q, grid evidence with Q)."""
    a, b = rng.choice([(1, 3), (1, 5), (3, 5), (1, 7)])
    prefix = [1] + [rng.choice([1, 2, 3]) for _ in range(rng.randint(0, 2))]
    rng.shuffle(prefix)
    return {
        "alphabet": [_pair(2, (0, 1), (0, 1)), _pair(2, (0, 3 * a), (0, 1)),
                     _pair(2, (0, 3 * b), (0, 1))],
        "word": {"prefix": prefix, "tail": {"periodic": [2, 3]}},
        "exponents": {"const": 1},
    }


def qgrid(rng: random.Random, out: _Writer) -> list[Op]:
    # A: one letter at scale 4, digits {0, 2u}, spectrum {0, 1}
    spec_a = out.write({"alphabet": [_pair(4, (0, 2 * _odd(rng, 1, 7)), (0, 1))]})
    # B: periodic two-letter word over (6, {0, 3u}) and (4, {0, 2v})
    pattern = rng.choice([[1, 2], [2, 1], [1, 1, 2], [1, 2, 2]])
    spec_b = out.write({
        "alphabet": [_pair(6, (0, 3 * _odd(rng, 1, 5)), (0, 1)),
                     _pair(4, (0, 2 * _odd(rng, 1, 5)), (0, 1))],
        "word": {"prefix": [], "tail": {"periodic": pattern}},
        "exponents": {"const": 1},
    })
    # C: (6, {0,1,2}) at depth 9 has 3^9 = 19683 branches, more than the
    # default budget of 16384 atoms, so the pruning path runs.  Kept at the
    # reference digits because lifting them changes the cost by 15%.
    spec_c = out.write({"alphabet": [_pair(6, (0, 1, 2), (0, 2, 4))]})
    spec_v = out.write(_survivor_spec(rng))

    def q(spec, depth, oracle_points=0):
        expect = {"spec": spec, "depth": depth, "grid": 128}
        if oracle_points:
            expect["oracle_points"] = sorted(rng.sample(range(128), oracle_points))
        return Op("q", ["q", spec, "--depth", str(depth), "--grid-size", "128"],
                  expect=expect)

    return [
        q(spec_a, 8, oracle_points=3), q(spec_a, 10), q(spec_a, 12),
        q(spec_b, 8, oracle_points=3), q(spec_b, 10),
        q(spec_c, 9),
        Op("verdict", ["verdict", spec_v], (0, 3),
           {"verdict": ("SpectralEvidence", "Inconclusive"), "q": True}),
        Op("example", ["example", "example-1.7"], (0,),
           {"verdict": ("NotSpectralCertified",), "q": True}),
        Op("example", ["example", "jorgensen-pedersen"], (0,),
           {"verdict": ("SpectralCertified",), "q": True}),
    ]


# ---------------------------------------------------------------------------
# exact: rational and integer certificates, no Q


def _random_prefix(rng, letters, lo=1, hi=4, must=None):
    prefix = [rng.choice(letters) for _ in range(rng.randint(lo, hi))]
    if must is not None and must not in prefix:
        prefix[rng.randrange(len(prefix))] = must
    return prefix


def _bernoulli(rng, m):
    weights = [rng.randint(1, 4) for _ in range(m)]
    total = sum(weights)
    return {"bernoulli": {"seed": rng.randrange(1 << 32),
                          "p": [str(Fraction(w, total)) for w in weights]}}


def _verdict(spec, verdict, reason):
    code = 3 if verdict == "Inconclusive" else 0
    return Op("verdict", ["verdict", "--no-q", spec], (code,),
              {"verdict": (verdict,), "reason": reason})


def _family_classifier(rng, out, stretch):
    """The two-letter family {0..N-1} and p{0..N-1} at scale t*N.  The
    paper's classification: t >= 2 is spectral; t = 1 is spectral iff the
    word is constant on the scaled letter or the consecutive letter recurs."""
    base = rng.choice([2, 3])
    step = rng.choice([p for p in range(2, 8) if math.gcd(p, base) == 1])
    spectrum = [stretch * d for d in range(base)]
    alphabet = [_pair(stretch * base, range(base), spectrum),
                _pair(stretch * base, [step * d for d in range(base)], spectrum)]
    if stretch == 1:
        word = {"prefix": _random_prefix(rng, [1, 2], must=1),
                "tail": {"periodic": [2]}}
        verdict = "NotSpectralCertified"
    else:
        word = {"prefix": _random_prefix(rng, [1, 2]), "tail": _bernoulli(rng, 2)}
        verdict = "SpectralCertified"
    spec = out.write({"alphabet": alphabet, "word": word,
                      "exponents": {"const": 1}})
    return _verdict(spec, verdict, "special-family-classifier")


def _mixed_letters(rng):
    return [_pair(4, (0, 2 * _odd(rng, 1, 7)), (0, 1)),
            _pair(6, (0, 3 * _odd(rng, 1, 5)), (0, 1)),
            _pair(4, (0, 1), (0, 2))]


IZ_SPEC = {
    "alphabet": [_pair(4, (0, 6), (0, 1)), _pair(2, (0, 3), (0, 1))],
    "word": {"prefix": [], "tail": {"periodic": [1, 2]}},
}


def exact(rng: random.Random, out: _Writer) -> list[Op]:
    ops = [_family_classifier(rng, out, 1), _family_classifier(rng, out, 2)]
    # One verdict per exact branch, so that as many ops cost less than the
    # 55-85 ms group (truncate at depth 10, overlap at depth 10, the two
    # window examples) as cost more: op_p50_ms then falls inside that group
    # of near-equal ops instead of on a gap between two ops.
    # Unbounded exponents: shifted tails collapse to the point mass at 0.
    spec = out.write({
        "alphabet": _mixed_letters(rng),
        "word": {"prefix": _random_prefix(rng, [1, 2, 3]), "tail": {"enumerate": 3}},
        "exponents": {"unbounded": {"offset": rng.randint(1, 3),
                                    "shift": rng.randint(0, 4)}},
    })
    ops.append(_verdict(spec, "SpectralCertified", "unbounded-exponent-tail-collapse"))
    # Every occurring letter recurs: the difference-gcd reduction applies.
    spec = out.write({
        "alphabet": _mixed_letters(rng),
        "word": {"prefix": _random_prefix(rng, [1, 2, 3]), "tail": {"periodic": [1, 2, 3]}},
        "exponents": {"periodic": [1, 2]},
    })
    ops.append(_verdict(spec, "SpectralCertified", "tail-difference-gcd"))
    # (4,{0,1}) finitely often, then (4,{0,2u}) forever: every zero
    # candidate of the limit tail has a nonzero integer translate.
    spec = out.write({
        "alphabet": [_pair(4, (0, 1), (0, 2)),
                     _pair(4, (0, 2 * _odd(rng, 1, 7)), (0, 1))],
        "word": {"prefix": _random_prefix(rng, [1, 2], must=1),
                 "tail": {"periodic": [2]}},
        "exponents": {"const": 1},
    })
    ops.append(_verdict(spec, "SpectralCertified", "empty-periodic-zero-set"))
    # survivors go through the residue cover and stay undecided
    for _ in range(2):
        ops.append(_verdict(out.write(_survivor_spec(rng)), "Inconclusive",
                            "budget-exhausted"))

    # truncation, overlap and transforms on two-digit periodic specs
    trunc = {
        "alphabet": [_pair(4, (0, 2 * _odd(rng, 1, 5)), (0, 1)),
                     _pair(2, (0, _odd(rng, 1, 7)), (0, 1))],
        "word": {"prefix": [], "tail": {"periodic": rng.choice([[1, 2], [2, 1, 1]])}},
        "exponents": {"const": 1},
    }
    spec_t = out.write(trunc)
    for depth in (10, 12, 13):
        ops.append(Op("truncate", ["conv", "truncate", spec_t, "--depth", str(depth)],
                      expect={"spec": spec_t, "depth": depth}))
    spec_o = out.write({"alphabet": [_pair(4, (0, rng.choice([1, 3])),
                                           (0, 2))]})
    shift = rng.choice([1, 2])
    for depth in (10, 11, 12):
        ops.append(Op("overlap", ["conv", "overlap", spec_o, str(shift),
                                  "--depth", str(depth)],
                      expect={"spec": spec_o, "depth": depth, "shift": shift}))
    for _ in range(2):
        xi = Fraction(rng.randint(1, 400), rng.choice([3, 5, 7, 9, 11]))
        ops.append(Op("ft", ["conv", "ft", spec_t, str(xi)],
                      expect={"spec": spec_t, "xi": str(xi)}))
    # iz on exact atom lists: truncations computed here, not by the program.
    # The spec is fixed: iz cost grows with the digit span about 15-fold
    # between the digits the seed would otherwise pick.  The level factors
    # (1 + e(-b xi / c_k)) / 2 vanish exactly at 2^a * odd / 3 with a in
    # {0, 2, 3, 5, 6, 8, ...}, never a = 1, and every coset xi + Z of a
    # third contains a point with a = 1: the zero set is empty.
    for depth in (5, 6):
        atoms = [{"x": str(x), "w": str(w)}
                 for x, w in sorted(truncation(IZ_SPEC, depth).items())]
        spec = out.write(atoms)
        ops.append(Op("iz", ["iz", spec], expect={"kind": "empty-certified"}))
    ops.append(Op("example", ["example", "example-7.1"], (0,),
                  {"verdict": ("SpectralCertified",)}))
    ops.append(Op("example", ["example", "example-7.2"], (0,),
                  {"verdict": ("SpectralCertified",)}))
    spec_m = out.write({"alphabet": [_pair(2, (0, 1), (0, 1)),
                                     _pair(2, (0, 3), (0, 1))]})
    trials = 200
    ops.append(Op("mc", ["--seed", str(rng.randrange(1 << 30)), "mc", spec_m,
                         "--trials", str(trials), "--length", "64"],
                  expect={"trials": trials, "length": 64}))
    return ops


# ---------------------------------------------------------------------------
# search: admissibility and cold zero sets


def progression_pair(rng, k, m):
    """Digits congruent to u*j*m (j < k) modulo n = k*m, u a unit mod k.
    The exponential sum at delta vanishes iff k does not divide delta, so
    the spectra containing 0 inside [0, n) are exactly the sets with one
    element per residue class mod k: m**(k-1) of them."""
    n = k * m
    u = rng.choice([v for v in range(1, k) if math.gcd(v, k) == 1])
    digits = sorted((u * j * m) % n + n * rng.randint(0, 2) for j in range(k))
    return n, digits


# (k, m) per hadamard search, giving 128, 1024, 7776 and 16384 spectra.
# (8, 4) comes twice: its cost does not depend on the draw, and with two
# per pass the 11 costliest ops of a run, which set op_tail_ms, lie
# inside that group instead of on its edge with the next.
SEARCH_SIZES = ((8, 2), (6, 4), (6, 6), (8, 4), (8, 4))
# (k, m) of the letters in specs whose pairs omit their spectrum
VALIDATE_SIZES = ((4, 4), (6, 4), (8, 3))
# The cost of one mask op moves with the fresh digits by a factor of 3
# to 40 at a given span, so spans are kept away from the two places in
# the cost order that set the metrics.  Spans 40, 60 and 80 are left out:
# with them, the op at the middle of the cost order was a mask, and
# op_p50_ms flipped between its neighbours; three admissible validates
# and the (8, 3) verdict, all near 90 ms, now sit at the middle.  Spans
# 140 and 160 (0.3-0.6 s and 0.03-1.7 s) are left out because they
# reach the (8, 4) searches at the top and made op_tail_ms and ops_per_s
# follow the draw.  Span 120 (0.05-0.4 s) comes three times, between the
# two, so that cold mask work is about a third of a pass.
MASK_SPANS = (20, 100, 120, 120, 120)
MASK_DIGITS = 6


def _inadmissible_pair(rng):
    """Two digits at an odd scale: the sum 1 + z is never 0 for an odd
    root of unity z, so no spectrum exists."""
    n = rng.choice([15, 21, 25, 27])
    return _pair(n, (0, rng.randint(1, n - 1)))


def search(rng: random.Random, out: _Writer) -> list[Op]:
    ops = []
    for k, m in SEARCH_SIZES:
        n, digits = progression_pair(rng, k, m)
        ops.append(Op("search", ["hadamard", "search", str(n),
                                 ",".join(map(str, digits))],
                      expect={"scale": n, "digits": digits, "count": m ** (k - 1)}))
    for bad in (False, False, False, True):
        alphabet = [_pair(*progression_pair(rng, k, m)) for k, m in VALIDATE_SIZES]
        if bad:  # always in place of the largest search, so the cost is fixed
            alphabet[-1] = _inadmissible_pair(rng)
        order = list(range(len(alphabet)))
        rng.shuffle(order)
        alphabet = [alphabet[i] for i in order]
        bad_index = order.index(len(alphabet) - 1) if bad else None
        spec = out.write({
            "alphabet": alphabet,
            "word": {"prefix": _random_prefix(rng, [1, 2, 3]),
                     "tail": {"periodic": [1, 2, 3]}},
        })
        ops.append(Op("validate", ["validate", spec], (2,) if bad else (0,),
                      {"bad_pair": bad_index}))
    # one letter: every occurring letter recurs
    spec = out.write({"alphabet": [_pair(*progression_pair(rng, 8, 3))]})
    ops.append(_verdict(spec, "SpectralCertified", "tail-difference-gcd"))
    spec = out.write({"alphabet": [_inadmissible_pair(rng)]})
    ops.append(_verdict(spec, "Inconclusive", "pair-admissibility-unknown"))
    for span in MASK_SPANS:
        # Digits with gcd g > 1 are g times a set of span span/g, which
        # costs a small fraction of a span-`span` set: draw again.
        digits = [0]
        while math.gcd(*digits) != 1:
            digits = sorted({0, span} | set(rng.sample(range(1, span), MASK_DIGITS - 2)))
        ops.append(Op("mask", ["mask", "zeros", ",".join(map(str, digits))],
                      expect={"digits": digits}))
    return ops


GENERATORS = {"qgrid": qgrid, "exact": exact, "search": search}


def generate(workload: str, seed: int, pass_index: int, root: str) -> list[Op]:
    """Write the spec files of one pass under ``root``; return its ops.

    Workloads that reuse their inputs ignore ``pass_index``.
    """
    if workload not in GENERATORS:
        raise ValueError("unknown workload %r; choose from %s"
                         % (workload, ", ".join(WORKLOADS)))
    if not FRESH_INPUTS_PER_PASS[workload]:
        pass_index = 0
    rng = random.Random("%s:%d:%d" % (workload, seed, pass_index))
    return GENERATORS[workload](rng, _Writer(root, "p%d" % pass_index))


# ---------------------------------------------------------------------------
# spec interpretation shared with the checks (independent of the library)


def level(spec: dict, k: int):
    """(scale, exponent, digits, spectrum) of level k >= 1.

    Supports what the generators emit for Q, truncation and transform
    ops: an explicit prefix, a periodic tail, and constant or periodic
    exponents."""
    word = spec.get("word", {"prefix": [], "tail": {"periodic": [1]}})
    prefix = word.get("prefix", [])
    if k <= len(prefix):
        letter = prefix[k - 1]
    else:
        pattern = word["tail"]["periodic"]
        letter = pattern[(k - len(prefix) - 1) % len(pattern)]
    exps = spec.get("exponents") or {"const": 1}
    if "const" in exps:
        e = exps["const"]
    else:
        e = exps["periodic"][(k - 1) % len(exps["periodic"])]
    pair = spec["alphabet"][letter - 1]
    return pair["n"], e, tuple(pair["b"]), tuple(pair.get("l", ()))


def truncation(spec: dict, depth: int) -> dict:
    """Exact depth-q truncation {position: weight}, built on integers.

    Positions are N / c_q with N = sum_k b_k * c_q / c_k, so the atoms are
    counted with integer keys and converted to Fractions once."""
    counts = {0: 1}
    c = 1
    total = 1
    for k in range(1, depth + 1):
        s, e, digits, _ = level(spec, k)
        step = s ** e
        c *= step
        total *= len(digits)
        nxt: dict[int, int] = {}
        for pos, mult in counts.items():
            base = pos * step
            for b in digits:
                nxt[base + b] = nxt.get(base + b, 0) + mult
        counts = nxt
    return {Fraction(pos, c): Fraction(mult, total) for pos, mult in counts.items()}
