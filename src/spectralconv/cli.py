"""Command line front end.

Every subcommand prints one JSON document to stdout (sorted keys, fixed
indentation) and optionally writes it to --json-out, so outputs are
byte-deterministic given the same inputs and flags.  Q reports can also
be dumped to CSV with the fixed column set xi, q_value, radius, depth.

Malformed input ends every command the same way: one JSON document
{"error": kind, "detail": message} and exit code 2 (kind "bad-input"),
or 3 when a depth limit or an irrational mask zero stops an exact
computation (kinds "depth-limit" and "irrational-zeros").
"""
from __future__ import annotations

import csv
import functools
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Optional

import click
import numpy as np

from .catalog import example_ids, run_example
from .convolution import (
    ConvolutionSpec,
    DepthLimitError,
    SparseInsertionSpec,
    density_consecutive,
    overlap_mass,
    zero_set_window,
)
from .hadamard import first_spectrum, is_admissible, spectrum_rows, AdmissiblePair
from .mask import IrrationalZeroPresent, mask_zero_set
from .measures import AtomicMeasure, frac_str, parse_frac, parse_int
from .spectrality import (
    VerdictBudget,
    budget_q_partial,
    iz_weak_limit,
    spectral_verdict,
)
from .words import monte_carlo_spectrality


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r"
                         % text) from None


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("window must be LO,HI")
    return (parse_frac(parts[0]), parse_frac(parts[1]))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("JSON numbers must be finite, got %s" % text)
    return value


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle, parse_float=_finite, parse_constant=_finite)


def _load_convolution(path: str) -> ConvolutionSpec:
    return ConvolutionSpec.from_json(_load_json(path))


def _load_target(path: str):
    """Spec file dispatch: atom lists, insertion specs, or convolutions."""
    data = _load_json(path)
    if isinstance(data, list) or "atoms" in data:
        atoms = data if isinstance(data, list) else data["atoms"]
        return AtomicMeasure.from_json(atoms)
    if "regular" in data:
        return SparseInsertionSpec.from_json(data)
    return ConvolutionSpec.from_json(data)


_SCALARS = frozenset((str, int, float, bool, type(None)))
# the C encoder, breaking lines between items at the indent of a level
_encoder = functools.lru_cache(lambda level: json.JSONEncoder(
    sort_keys=True, separators=(",\n" + "  " * level, ": ")).encode)


def _rows(arr: np.ndarray, level: int) -> str:
    """A 2-D integer array as the list of its rows, one number per line.

    Every cell's text, with the row opener in the first column and the
    row closer in the last, is looked up in a table over [min, max], so
    the rows never become Python lists."""
    if arr.ndim != 2 or arr.dtype.kind not in "iu":
        raise TypeError("only 2-D integer arrays are printed, got a %d-D %s array"
                        % (arr.ndim, arr.dtype))
    if not arr.size:
        return _dumps(arr.tolist(), level)
    pad, inner, deep = "  " * level, "  " * (level + 1), "  " * (level + 2)
    lo = int(arr.min())
    values = np.array(list(map(str, range(lo, int(arr.max()) + 1))), dtype=object)
    opener, closer = inner + "[\n" + deep, "\n" + inner + "],\n"
    table = np.stack([opener + values + ",\n", deep + values + ",\n",
                      deep + values + closer, opener + values + closer])
    kind = [3] if arr.shape[1] == 1 else [0] + [1] * (arr.shape[1] - 2) + [2]
    cells = table[kind, arr - lo].ravel().tolist()
    cells[0] = "[\n" + cells[0]
    cells[-1] = cells[-1][:-2] + "\n" + pad + "]"  # one cell may be both
    return "".join(cells)


def _records(arr: np.ndarray, level: int) -> str:
    """A 1-D structured array as the list of its records, each an object
    of its fields.

    Each field's column goes through the C encoder once, as a list of
    scalars whose ensure_ascii text holds no raw newline, and each record's
    text is joined once from the column texts."""
    if arr.ndim != 1:
        raise TypeError("only 1-D arrays of scalar records are printed")
    if not arr.size:
        return "[]"
    pad, inner, deep = "  " * level, "  " * (level + 1), "  " * (level + 2)
    names, columns = sorted(arr.dtype.names), []
    for name in names:
        column = arr[name].tolist()
        if not set(map(type, column)) <= _SCALARS:
            raise TypeError("only 1-D arrays of scalar records are printed")
        columns.append(_encoder(0)(column)[1:-1].split(",\n"))
    texts = columns[0]
    for name, column in zip(names[1:], columns[1:]):
        texts = list(map((",\n" + deep + _encoder(0)(name) + ": ").join, zip(texts, column)))
    opener = inner + "{\n" + deep + _encoder(0)(names[0]) + ": "
    return ("[\n" + opener + ("\n" + inner + "},\n" + opener).join(texts)
            + "\n" + inner + "}\n" + pad + "]")


def _dumps(obj, level: int = 0) -> str:
    """The stdlib's sorted-key, two-space-indent JSON of a string-keyed tree.

    Scalar-only containers, and lists of non-empty scalar-only containers
    of one kind, go to the C encoder whole: ensure_ascii strings hold no
    raw newline, so every ",\n" it writes is a separator.  A 2-D integer
    ndarray prints as the list of its rows, and a structured one as the
    list of its records."""
    if isinstance(obj, np.ndarray):
        return _records(obj, level) if obj.dtype.names else _rows(obj, level)
    if not isinstance(obj, (dict, list, tuple)):
        return _encoder(0)(obj)
    o, c = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return o + c
    pad, inner, deep = "  " * level, "  " * (level + 1), "  " * (level + 2)
    kinds = set(map(type, obj.values() if o == "{" else obj))
    co, cc = "{}" if dict in kinds else "[]"
    if kinds <= _SCALARS:
        body = _encoder(level + 1)(obj)[1:-1]
    elif (o == "[" and (kinds <= {list, tuple} or kinds == {dict})
          and all(map(len, obj)) and set(map(type, chain.from_iterable(
              map(dict.values, obj) if co == "{" else obj))) <= _SCALARS):
        gap = "\n" + inner + cc + ",\n" + inner + co + "\n" + deep
        body = (co + "\n" + deep + _encoder(level + 2)(obj)[2:-2].replace(
            cc + ",\n" + deep + co, gap) + "\n" + inner + cc)
    elif o == "[":
        body = (",\n" + inner).join(_dumps(m, level + 1) for m in obj)
    else:
        body = (",\n" + inner).join(_encoder(0)(k) + ": " + _dumps(v, level + 1)
                                   for k, v in sorted(obj.items()))
    return "".join((o, "\n", inner, body, "\n", pad, c))  # one copy of a long body


def _emit(ctx: click.Context, payload: dict) -> None:
    """Write the payload to --json-out, then print it."""
    text = _dumps(payload)
    json_out = ctx.obj.get("json_out")
    if json_out:
        with open(json_out, "w") as handle:
            handle.write(text)
            handle.write("\n")
    click.echo(text)


def _emit_q_csv(ctx: click.Context, q_json: Optional[dict]) -> None:
    """Write a Q report to --csv-out; a command without one writes none."""
    csv_out = ctx.obj.get("csv_out")
    if csv_out and q_json:
        with open(csv_out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["xi", "q_value", "radius", "depth"])
            for xi, q, r in zip(q_json["grid"], q_json["q_values"],
                                q_json["radii"]):
                writer.writerow([repr(xi), repr(q), repr(r), q_json["depth"]])


def _fail(ctx: click.Context, kind: str, exc: Exception, code: int) -> None:
    if isinstance(exc, OSError) and exc.filename == ctx.obj.get("json_out"):
        ctx.obj["json_out"] = None  # that file is what failed: print only
    _emit(ctx, {"error": kind, "detail": str(exc)})
    ctx.exit(code)


class _ErrorDocumentGroup(click.Group):
    """The top-level group: every library input error leaves through here.

    RuntimeError is not caught, because click's own Exit is one.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DepthLimitError as exc:
            _fail(ctx, "depth-limit", exc, 3)
        except IrrationalZeroPresent as exc:
            _fail(ctx, "irrational-zeros", exc, 3)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            _fail(ctx, "bad-input", exc, 2)


def _budget(ctx: click.Context, **overrides) -> VerdictBudget:
    return VerdictBudget(**{"depth": ctx.obj["budget_depth"], **overrides})


@click.group(cls=_ErrorDocumentGroup)
@click.option("--json-out", type=click.Path(), default=None,
              help="also write the JSON payload to this file")
@click.option("--csv-out", type=click.Path(), default=None,
              help="write Q grids as CSV (columns xi,q_value,radius,depth)")
@click.option("--seed", type=int, default=2026, show_default=True)
@click.option("--budget-depth", type=int, default=12, show_default=True)
@click.option("--horizon", type=int, default=64, show_default=True)
@click.pass_context
def main(ctx, json_out, csv_out, seed, budget_depth, horizon):
    """Spectrality toolkit for infinite convolution measures."""
    ctx.obj = {
        "json_out": json_out,
        "csv_out": csv_out,
        "seed": seed,
        "budget_depth": budget_depth,
        "horizon": horizon,
    }


@main.group()
def hadamard():
    """Admissible pair checks and spectrum search."""


@hadamard.command("check")
@click.argument("scale", type=int)
@click.argument("digits")
@click.argument("spectrum")
@click.pass_context
def hadamard_check(ctx, scale, digits, spectrum):
    digits = _parse_ints(digits)
    spectrum = _parse_ints(spectrum)
    ok = is_admissible(scale, digits, spectrum)
    payload = {
        "scale": scale,
        "digits": list(digits),
        "spectrum": list(spectrum),
        "admissible": ok,
    }
    if ok:
        pair = AdmissiblePair(scale, digits, spectrum)
        payload["unitarity_residual"] = pair.unitarity_residual()
    _emit(ctx, payload)


@hadamard.command("search")
@click.argument("scale", type=int)
@click.argument("digits")
@click.option("--limit", type=int, default=64, show_default=True)
@click.pass_context
def hadamard_search(ctx, scale, digits, limit):
    digits = _parse_ints(digits)
    spectra = spectrum_rows(scale, digits, limit)
    _emit(ctx, {
        "scale": scale,
        "digits": list(digits),
        "spectra": spectra,
        "admissible": len(spectra) > 0,
    })


@main.group()
def mask():
    """Zero sets of digit-set exponential sums."""


@mask.command("zeros")
@click.argument("digits")
@click.pass_context
def mask_zeros(ctx, digits):
    zeros = mask_zero_set(_parse_ints(digits))
    _emit(ctx, zeros.to_json())


@mask.command("window")
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--start", type=int, default=0, show_default=True,
              help="restart the level product after this many levels")
@click.option("--halfwidth", default="4", show_default=True)
@click.pass_context
def mask_window(ctx, specfile, start, halfwidth):
    spec = _load_convolution(specfile)
    zeros = zero_set_window(spec, start, parse_frac(halfwidth))
    _emit(ctx, {
        "start": start,
        "halfwidth": halfwidth,
        "zeros": [frac_str(z) for z in zeros],
    })


@main.group()
def conv():
    """Direct computations on a convolution spec."""


@conv.command("truncate")
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--depth", type=int, default=4, show_default=True)
@click.pass_context
def conv_truncate(ctx, specfile, depth):
    spec = _load_convolution(specfile)
    measure = spec.truncate(depth)
    _emit(ctx, {"depth": depth, "atoms": measure.to_records()})


@conv.command("ft")
@click.argument("specfile", type=click.Path(exists=True))
@click.argument("xi")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def conv_ft(ctx, specfile, xi, tol):
    spec = _load_convolution(specfile)
    value = spec.ft_infinite(parse_frac(xi), tol=tol)
    _emit(ctx, {
        "xi": xi,
        "re": value.value.real,
        "im": value.value.imag,
        "radius": value.radius,
        "abs_lower": value.abs_lower(),
        "abs_upper": value.abs_upper(),
    })


@conv.command("support")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def conv_support(ctx, specfile):
    spec = _load_convolution(specfile)
    lo, hi = spec.support_bound()
    _emit(ctx, {"lo": frac_str(lo), "hi": frac_str(hi)})


@conv.command("density")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def conv_density(ctx, specfile):
    spec = _load_convolution(specfile)
    _emit(ctx, density_consecutive(spec).to_json())


@conv.command("overlap")
@click.argument("specfile", type=click.Path(exists=True))
@click.argument("shift", type=int)
@click.option("--depth", type=int, default=8, show_default=True)
@click.pass_context
def conv_overlap(ctx, specfile, shift, depth):
    spec = _load_convolution(specfile)
    mass = overlap_mass(spec, shift, depth)
    _emit(ctx, {"shift": shift, "depth": depth, "mass": frac_str(mass)})


@main.command("q")
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--depth", type=int, default=None,
              help="levels in the partial product (default: --budget-depth)")
@click.option("--grid-size", type=int, default=64, show_default=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@click.option("--budget-atoms", type=int, default=16384, show_default=True)
@click.pass_context
def q_command(ctx, specfile, depth, grid_size, tol, budget_atoms):
    budget = _budget(ctx, grid=grid_size, tol=tol, budget_atoms=budget_atoms,
                     depth=ctx.obj["budget_depth"] if depth is None else depth)
    payload = budget_q_partial(_load_convolution(specfile), budget).to_json()
    _emit_q_csv(ctx, payload)
    _emit(ctx, payload)


@main.command("iz")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def iz_command(ctx, specfile):
    target = _load_target(specfile)
    verdict = iz_weak_limit(target, ctx.obj["horizon"])
    _emit(ctx, verdict.to_json())


@main.command("verdict")
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--no-q", is_flag=True, default=False,
              help="skip the numeric Q evidence stage")
@click.option("--window", default=None,
              help="LO,HI window override for insertion specs")
@click.pass_context
def verdict_command(ctx, specfile, no_q, window):
    target = _load_target(specfile)
    budget = _budget(ctx, run_q=not no_q, window=_parse_window(window))
    report = spectral_verdict(target, budget)
    payload = report.to_json()
    _emit_q_csv(ctx, payload.get("q_report"))
    _emit(ctx, payload)
    if report.verdict == "Inconclusive":
        ctx.exit(3)


@main.command("mc")
@click.argument("specfile", type=click.Path(exists=True))
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--length", type=int, default=64, show_default=True)
@click.option("--probs", default=None,
              help="comma-separated letter probabilities (default uniform)")
@click.option("--pattern", default=None,
              help="comma-separated letters whose frequency to track")
@click.pass_context
def mc_command(ctx, specfile, trials, length, probs, pattern):
    data = _load_json(specfile)
    alphabet = tuple(AdmissiblePair.from_json(entry)
                     for entry in data["alphabet"])
    if probs is None:
        probs = tuple(Fraction(1, len(alphabet)) for _ in alphabet)
    else:
        probs = tuple(parse_frac(p) for p in probs.split(","))
    pattern_letters = _parse_ints(pattern) if pattern else None
    summary = monte_carlo_spectrality(alphabet, probs, trials, length,
                                      seed=ctx.obj["seed"],
                                      pattern=pattern_letters)
    _emit(ctx, summary.to_json())


@main.command("example")
@click.argument("example_id", type=click.Choice(example_ids()))
@click.option("--no-q", is_flag=True, default=False)
@click.option("--window", default=None)
@click.pass_context
def example_command(ctx, example_id, no_q, window):
    budget = _budget(ctx, run_q=not no_q, window=_parse_window(window))
    payload, code = run_example(example_id, budget)
    _emit_q_csv(ctx, payload.get("q_report"))
    _emit(ctx, payload)
    ctx.exit(code)


def validate_spec(data) -> tuple[Optional[dict], list[dict]]:
    """Schema and admissibility check with spectrum auto-fill.

    Returns (normalized spec JSON, []) on success or (None, diagnostics)
    where each diagnostic carries the pair index (or "word"/"exponents")
    and a reason.
    """
    diagnostics: list[dict] = []
    if not isinstance(data, dict):
        return None, [{"pair": None, "reason": "spec must be a JSON object"}]
    alphabet = data.get("alphabet")
    if not isinstance(alphabet, list) or not alphabet:
        return None, [{"pair": None,
                       "reason": "alphabet must be a nonempty list"}]
    normalized = []
    for index, entry in enumerate(alphabet):
        if not isinstance(entry, dict) or "n" not in entry or "b" not in entry:
            diagnostics.append({"pair": index,
                                "reason": "each pair needs n and b"})
            continue
        try:
            scale = parse_int(entry["n"])
            digits = tuple(map(parse_int, entry["b"]))
            spectrum = entry.get("l")
            if spectrum is not None:
                spectrum = tuple(map(parse_int, spectrum))
                pair = AdmissiblePair(scale, digits, spectrum)
            else:
                found = first_spectrum(scale, digits)
                if found is None:
                    diagnostics.append({
                        "pair": index,
                        "reason": "not admissible: no integer spectrum "
                                  "exists for (%d, %s)"
                                  % (scale, list(digits))})
                    continue
                pair = AdmissiblePair(scale, digits, found)
        except ValueError as exc:
            diagnostics.append({"pair": index, "reason": str(exc)})
            continue
        normalized.append(pair.to_json())
    if diagnostics:
        return None, diagnostics
    candidate = {"alphabet": normalized}
    if "word" in data:
        candidate["word"] = data["word"]
    if "exponents" in data and data["exponents"] is not None:
        candidate["exponents"] = data["exponents"]
    try:
        spec = ConvolutionSpec.from_json(candidate)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [{"pair": "word", "reason": str(exc)}]
    return spec.to_json(), []


@main.command("validate")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def validate_command(ctx, specfile):
    data = _load_json(specfile)
    normalized, diagnostics = validate_spec(data)
    if diagnostics:
        _emit(ctx, {"valid": False, "diagnostics": diagnostics})
        ctx.exit(2)
        return
    _emit(ctx, {"valid": True, "spec": normalized})


if __name__ == "__main__":
    main(prog_name="spectral")
