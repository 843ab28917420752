"""Worked examples with pinned expected outcomes.

Each entry builds its measure from scratch, runs the verdict pipeline,
and compares against the expected verdict.  run_example returns the
payload plus a process exit code: 0 when every expectation matches,
2 when a decisive verdict contradicts the expectation, 3 when the
pipeline came back inconclusive.
"""
from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction
from typing import Optional

from .convolution import (
    ConstantExponents,
    ConvolutionSpec,
    SparseInsertionSpec,
)
from .hadamard import AdmissiblePair
from .measures import frac_str
from .spectrality import (
    VerdictBudget,
    budget_q_partial,
    classify_special,
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


_GRID_WORDS = (
    ("constant-2", SymbolicWord((), PeriodicTail((2,)))),
    ("one-then-2", SymbolicWord((1,), PeriodicTail((2,)))),
    ("alternating", SymbolicWord((), PeriodicTail((1, 2)))),
    ("enumeration", SymbolicWord((), EnumerationTail(2, 0))),
)


def _exit_code(matches: list[bool], verdicts: list[str]) -> int:
    if any(v == "Inconclusive" for v in verdicts):
        return EXIT_INCONCLUSIVE
    if all(matches):
        return EXIT_MATCH
    return EXIT_CONTRADICTION


def _convolution_payload(spec: ConvolutionSpec, expected: str,
                         budget: VerdictBudget) -> dict:
    report = spectral_verdict(spec, budget)
    payload = {
        "spec": spec.to_json(),
        "expected": expected,
        "report": report.to_json(),
        "match": report.verdict == expected,
    }
    if budget.run_q:
        payload["q_report"] = budget_q_partial(spec, budget).to_json()
    return payload


def _sparse_payload(spec: SparseInsertionSpec, expected: str,
                    window: tuple[Fraction, Fraction],
                    budget: VerdictBudget) -> dict:
    if budget.window is None:
        budget = dataclasses.replace(budget, window=window)
    report = spectral_verdict(spec, budget)
    return {
        "spec": spec.to_json(),
        "expected": expected,
        "window": [frac_str(Fraction(w)) for w in budget.window],
        "report": report.to_json(),
        "match": report.verdict == expected,
    }


def _grid_payload(budget: VerdictBudget) -> dict:
    cells = []
    for t in (1, 2):
        for word_name, word in _GRID_WORDS:
            expected_class = classify_special(t, 2, 3, word)
            expected = ("SpectralCertified" if expected_class == "Spectral"
                        else "NotSpectralCertified")
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


def _run_scale4(budget: VerdictBudget) -> dict:
    return _convolution_payload(scale4_spec(), "SpectralCertified", budget)


def _run_mixed_word(budget: VerdictBudget) -> dict:
    return _convolution_payload(mixed_word_spec(), "NotSpectralCertified",
                                budget)


def _run_insertion_five_sixths(budget: VerdictBudget) -> dict:
    return _sparse_payload(insertion_target_five_sixths(),
                           "SpectralCertified",
                           (Fraction(19, 30), Fraction(1)), budget)


def _run_insertion_one_half(budget: VerdictBudget) -> dict:
    return _sparse_payload(insertion_target_one_half(), "SpectralCertified",
                           (Fraction(2, 5), Fraction(1)), budget)


EXAMPLES = {
    "jorgensen-pedersen": _run_scale4,
    "example-1.7": _run_mixed_word,
    "example-7.1": _run_insertion_five_sixths,
    "example-7.2": _run_insertion_one_half,
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
    return _exit_code(matches, verdicts)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2))
        handle.write("\n")


def write_q_csv(path: str, q_report: dict) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["xi", "q_value", "radius", "depth"])
        depth = q_report["depth"]
        for xi, q, r in zip(q_report["grid"], q_report["q_values"],
                            q_report["radii"]):
            writer.writerow([repr(xi), repr(q), repr(r), depth])


def run_example(example_id: str, budget: Optional[VerdictBudget] = None,
                json_out: Optional[str] = None,
                csv_out: Optional[str] = None) -> tuple[dict, int]:
    if example_id not in EXAMPLES:
        raise KeyError("unknown example %r; choose from %s"
                       % (example_id, ", ".join(example_ids())))
    if budget is None:
        budget = VerdictBudget()
    payload = dict(EXAMPLES[example_id](budget))
    payload["example"] = example_id
    code = _payload_exit(payload)
    payload["exit_code"] = code
    if json_out:
        write_json(json_out, payload)
    if csv_out:
        q_report = payload.get("q_report")
        if q_report is None:
            q_report = payload.get("report", {}).get("q_report")
        if q_report:
            write_q_csv(csv_out, q_report)
    return payload, code
