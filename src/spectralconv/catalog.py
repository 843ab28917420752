"""Worked examples with pinned expected outcomes.

Each entry builds its measure from scratch, runs the verdict pipeline,
and compares against the expected verdict.  run_example returns the
payload plus a process exit code: 0 when every expectation matches,
2 when a decisive verdict contradicts the expectation, 3 when the
pipeline came back inconclusive.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import partial
from typing import Optional

from .convolution import (
    ConstantExponents,
    ConvolutionSpec,
    SparseInsertionSpec,
)
from .hadamard import AdmissiblePair
from .measures import frac_str
from .spectrality import (
    VERDICT_GRID,
    VerdictBudget,
    q_partial,
    spectral_verdict,
)
from .words import EnumerationTail, PeriodicTail, SymbolicWord

EXIT_MATCH = 0
EXIT_CONTRADICTION = 2
EXIT_INCONCLUSIVE = 3


def scale4_spec() -> ConvolutionSpec:
    """Scale 4, digits {0, 2}, the classical singular spectral measure."""
    return ConvolutionSpec(
        (AdmissiblePair(4, (0, 2), (0, 1)),),
        SymbolicWord((), PeriodicTail((1,))),
        ConstantExponents(1))


def two_letter_family_spec(t: int, base: int, step: int,
                           word: SymbolicWord) -> ConvolutionSpec:
    """Two letters at scale t*base: {0..base-1} and its step-scaled copy."""
    scale = t * base
    consecutive = tuple(range(base))
    scaled = tuple(step * d for d in consecutive)
    spectrum = tuple(t * d for d in consecutive)
    return ConvolutionSpec(
        (AdmissiblePair(scale, consecutive, spectrum),
         AdmissiblePair(scale, scaled, spectrum)),
        word, ConstantExponents(1))


def mixed_word_spec() -> ConvolutionSpec:
    """Letter 1 once, then the step-3 letter forever, at scale 2."""
    return two_letter_family_spec(
        1, 2, 3, SymbolicWord((1,), PeriodicTail((2,))))


def insertion_target_five_sixths() -> SparseInsertionSpec:
    """Scale 6 with digits {0,2,4}; triangular levels swap 0 for a digit
    near (5/6) * 6^j, so the shifted tails pick up a point mass at 5/6."""
    return SparseInsertionSpec(
        scale=6, regular_digits=(0, 2, 4), fixed_part=(2, 4),
        target=Fraction(5, 6), divisor=3, spectrum=(0, 2, 4))


def insertion_target_one_half() -> SparseInsertionSpec:
    """Scale 6 with digits {0,1,2}; triangular levels aim at 1/2 through
    multiples of 3, keeping every level admissible with spectrum {0,2,4}."""
    return SparseInsertionSpec(
        scale=6, regular_digits=(0, 1, 2), fixed_part=(1, 2),
        target=Fraction(1, 2), divisor=3, spectrum=(0, 2, 4))


# Theorem 1.6 on (2, {0, 1}) and (2, {0, 3}) stretched by t: every word is
# spectral at t = 2; at t = 1 these are the paper's answers, word by word
_GRID_WORDS = (
    ("constant-2", SymbolicWord((), PeriodicTail((2,))), "Spectral"),
    ("one-then-2", SymbolicWord((1,), PeriodicTail((2,))), "NotSpectral"),
    ("alternating", SymbolicWord((), PeriodicTail((1, 2))), "Spectral"),
    ("enumeration", SymbolicWord((), EnumerationTail(2, 0)), "Spectral"),
)


def _payload(build, expected: str, window: Optional[tuple[Fraction, Fraction]],
             budget: VerdictBudget) -> dict:
    """The verdict on ``build()`` against ``expected``; an insertion spec
    (one with a default ``window``) takes the window branch, a convolution
    spec adds Q on the verdict grid when the budget runs Q."""
    spec = build()
    if window is not None and budget.window is None:
        budget = dataclasses.replace(budget, window=window)
    report = spectral_verdict(spec, budget)
    payload = {
        "spec": spec.to_json(),
        "expected": expected,
        "report": report.to_json(),
        "match": report.verdict == expected,
    }
    if window is not None:
        payload["window"] = [frac_str(Fraction(w)) for w in budget.window]
    elif budget.run_q:
        payload["q_report"] = q_partial(spec, budget.depth, VERDICT_GRID).to_json()
    return payload


def _grid_payload(budget: VerdictBudget) -> dict:
    cells = []
    for t in (1, 2):
        for word_name, word, stretch_one in _GRID_WORDS:
            expected_class = "Spectral" if t == 2 else stretch_one
            expected = expected_class + "Certified"
            spec = two_letter_family_spec(t, 2, 3, word)
            report = spectral_verdict(spec, budget)
            cells.append({
                "stretch": t,
                "word": word_name,
                "classifier": expected_class,
                "expected": expected,
                "verdict": report.verdict,
                "reason": report.reason,
                "match": report.verdict == expected,
            })
    return {
        "cells": cells,
        "match": all(c["match"] for c in cells),
    }


# example id -> payload of a budget; an insertion row carries its window
EXAMPLES = {
    "jorgensen-pedersen": partial(_payload, scale4_spec, "SpectralCertified", None),
    "example-1.7": partial(_payload, mixed_word_spec, "NotSpectralCertified", None),
    "example-7.1": partial(_payload, insertion_target_five_sixths, "SpectralCertified",
                           (Fraction(19, 30), Fraction(1))),
    "example-7.2": partial(_payload, insertion_target_one_half, "SpectralCertified",
                           (Fraction(2, 5), Fraction(1))),
    "theorem-1.6-grid": _grid_payload,
}


def example_ids() -> tuple[str, ...]:
    return tuple(sorted(EXAMPLES))


def _payload_exit(payload: dict) -> int:
    if "cells" in payload:
        matches = [c["match"] for c in payload["cells"]]
        verdicts = [c["verdict"] for c in payload["cells"]]
    else:
        matches = [payload["match"]]
        verdicts = [payload["report"]["verdict"]]
    if "Inconclusive" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_MATCH if all(matches) else EXIT_CONTRADICTION


def run_example(example_id: str,
                budget: Optional[VerdictBudget] = None) -> tuple[dict, int]:
    if example_id not in EXAMPLES:
        raise KeyError("unknown example %r; choose from %s"
                       % (example_id, ", ".join(example_ids())))
    if budget is None:
        budget = VerdictBudget()
    payload = dict(EXAMPLES[example_id](budget))
    payload["example"] = example_id
    code = _payload_exit(payload)
    payload["exit_code"] = code
    return payload, code
