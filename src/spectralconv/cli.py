"""Command line front end.

Every subcommand prints one JSON document to stdout (sorted keys, fixed
indentation) and optionally writes it to --json-out, so outputs are
byte-deterministic given the same inputs and flags.  Q reports can also
be dumped to CSV with the fixed column set xi, q_value, radius, depth.

Malformed input ends every command the same way: one JSON document
{"error": kind, "detail": message} and exit code 2 (kind "bad-input"),
or 3 when a depth limit, an irrational mask zero or a lack of memory
stops a computation ("depth-limit", "irrational-zeros", "out-of-memory").
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
from .hadamard import (FIND_SPECTRA_SCALE_LIMIT, AdmissiblePair, first_spectrum,
                       is_admissible, spectrum_rows)
from .mask import IrrationalZeroPresent, mask_zero_set
from .measures import JSON_SCALARS, AtomicMeasure, frac_str, parse_frac
from .spectrality import (
    VerdictBudget,
    iz_weak_limit,
    q_partial,
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


# The kinds of spec file, told apart by their shape: a list or an object
# with "atoms", an object with "regular", and any other object.
CONVOLUTION, ATOMS, INSERTION = "a convolution spec", "an atom list", "an insertion spec"


def _read(path: str, kinds: tuple[str, ...] = (CONVOLUTION,)) -> tuple[str, object]:
    """A spec file's kind and JSON, read with the finite-number rule; a
    kind that is not in `kinds` is refused."""
    with open(path) as handle:
        data = json.load(handle, parse_float=_finite, parse_constant=_finite)
    kind = ("a JSON scalar" if not isinstance(data, (dict, list))
            else ATOMS if isinstance(data, list) or "atoms" in data
            else INSERTION if "regular" in data else CONVOLUTION)
    if kind not in kinds:
        raise ValueError("expected %s, got %s" % (" or ".join(kinds), kind))
    return kind, data


def _load(path: str, kinds: tuple[str, ...] = (CONVOLUTION,)):
    """A spec file parsed by the reader of its kind."""
    kind, data = _read(path, kinds)
    if kind == ATOMS:
        return AtomicMeasure.from_json(data["atoms"] if isinstance(data, dict) else data)
    return (ConvolutionSpec if kind == CONVOLUTION else SparseInsertionSpec).from_json(data)


def _detail(exc: Exception) -> str:
    """An error's message; a KeyError names its key as missing."""
    return "missing key %s" % exc if isinstance(exc, KeyError) else str(exc)


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


def _reduced(ints: np.ndarray, d: int, after: str) -> tuple[list, list]:
    """ints / d in lowest terms: each fraction's numerator string, and its
    "/m" (none for m = 1) followed by `after`.  One vectorized gcd, and one
    string per distinct reduced numerator and per distinct denominator m."""
    g = np.gcd(ints, d)
    nums, i = np.unique(ints // g, return_inverse=True)
    dens, j = np.unique(d // g, return_inverse=True)
    heads = np.array(list(map(str, nums.tolist())), object)
    ends = np.array([("/%d" % m if m != 1 else "") + after for m in dens.tolist()], object)
    return heads[i].tolist(), ends[j].tolist()


def _atoms(m: AtomicMeasure, level: int) -> str:
    """A measure's atoms as the list of their {"w", "x"} records of reduced
    fraction strings, joined once from the lattice integers: four pieces
    an atom, each numerator followed by the text from its denominator up
    to the next numerator."""
    pad, inner, deep = "  " * level, "  " * (level + 1), "  " * (level + 2)
    opener, closer = inner + "{\n" + deep + '"w": "', '"\n' + inner + "}"
    pieces = ["[\n" + opener, *chain.from_iterable(zip(
        *_reduced(m.weights, m.total, '",\n' + deep + '"x": "'),
        *_reduced(m.nums, m.den, closer + ",\n" + opener)))]
    pieces[-1] = pieces[-1][:-len(",\n" + opener)] + "\n" + pad + "]"
    return "".join(pieces)


def _dumps(obj, level: int = 0) -> str:
    """The stdlib's sorted-key, two-space-indent JSON of a string-keyed tree.

    Scalar-only containers go to the C encoder whole, and every other
    container is built member by member.  A 2-D integer ndarray prints as
    the list of its rows, and an AtomicMeasure as the list of its atoms'
    {"w", "x"} frac_str records."""
    if isinstance(obj, AtomicMeasure):
        return _atoms(obj, level)
    if isinstance(obj, np.ndarray):
        return _rows(obj, level)
    if not isinstance(obj, (dict, list, tuple)):
        return _encoder(0)(obj)
    o, c = "{}" if isinstance(obj, dict) else "[]"
    if not obj:
        return o + c
    pad, inner = "  " * level, "  " * (level + 1)
    if set(map(type, obj.values() if o == "{" else obj)) <= JSON_SCALARS:
        body = _encoder(level + 1)(obj)[1:-1]
    elif o == "[":
        body = (",\n" + inner).join(_dumps(m, level + 1) for m in obj)
    else:
        body = (",\n" + inner).join(_encoder(0)(k) + ": " + _dumps(v, level + 1)
                                   for k, v in sorted(obj.items()))
    return "".join((o, "\n", inner, body, "\n", pad, c))  # one copy of a long body


def _emit(ctx: click.Context, payload: dict) -> None:
    """Build the payload's document whole, then write it, and a newline,
    to --json-out and to the current stdout."""
    text = _dumps(payload)
    json_out = ctx.obj.get("json_out")
    if json_out:
        with open(json_out, "w") as handle:
            print(text, file=handle)
    print(text, flush=True)


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
    _emit(ctx, {"error": kind, "detail": _detail(exc)})
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
        except MemoryError as exc:  # numpy names the failed allocation, Python names none
            _fail(ctx, "out-of-memory", MemoryError(str(exc) or "out of memory"), 3)


def _budget(ctx: click.Context, no_q: bool, window: Optional[str]) -> VerdictBudget:
    return VerdictBudget(not no_q, ctx.obj["budget_depth"], _parse_window(window))


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
@click.option("--limit", type=int, default=FIND_SPECTRA_SCALE_LIMIT, show_default=True)
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
    spec = _load(specfile)
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
    _emit(ctx, {"depth": depth, "atoms": _load(specfile).truncate(depth)})


@conv.command("ft")
@click.argument("specfile", type=click.Path(exists=True))
@click.argument("xi")
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.pass_context
def conv_ft(ctx, specfile, xi, tol):
    spec = _load(specfile)
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
    spec = _load(specfile)
    lo, hi = spec.support_bound()
    _emit(ctx, {"lo": frac_str(lo), "hi": frac_str(hi)})


@conv.command("density")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def conv_density(ctx, specfile):
    spec = _load(specfile)
    _emit(ctx, density_consecutive(spec).to_json())


@conv.command("overlap")
@click.argument("specfile", type=click.Path(exists=True))
@click.argument("shift", type=int)
@click.option("--depth", type=int, default=8, show_default=True)
@click.pass_context
def conv_overlap(ctx, specfile, shift, depth):
    mass = overlap_mass(_load(specfile), shift, depth)
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
    spec = _load(specfile)
    grid = [Fraction(j, grid_size) for j in range(grid_size)]
    payload = q_partial(spec, ctx.obj["budget_depth"] if depth is None else depth,
                        grid, tol=tol, budget_atoms=budget_atoms).to_json()
    _emit_q_csv(ctx, payload)
    _emit(ctx, payload)


@main.command("iz")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def iz_command(ctx, specfile):
    target = _load(specfile, (CONVOLUTION, ATOMS))
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
    target = _load(specfile, (CONVOLUTION, INSERTION))
    budget = _budget(ctx, no_q, window)
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
    _, data = _read(specfile)
    alphabet = tuple(map(AdmissiblePair.from_json, data.get("alphabet", ())))
    probs = (tuple(Fraction(1, len(alphabet)) for _ in alphabet) if probs is None
             else tuple(parse_frac(p) for p in probs.split(",")))
    summary = monte_carlo_spectrality(alphabet, probs, trials, length, seed=ctx.obj["seed"],
                                      pattern=_parse_ints(pattern) if pattern else None)
    _emit(ctx, summary.to_json())


@main.command("example")
@click.argument("example_id", type=click.Choice(example_ids()))
@click.option("--no-q", is_flag=True, default=False)
@click.option("--window", default=None)
@click.pass_context
def example_command(ctx, example_id, no_q, window):
    budget = _budget(ctx, no_q, window)
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
    alphabet = data.get("alphabet")
    if not isinstance(alphabet, list) or not alphabet:
        return None, [{"pair": None, "reason": "spec needs a nonempty alphabet"}]
    filled = []
    for index, entry in enumerate(alphabet):
        try:
            pair = AdmissiblePair.from_json(entry)
            spectrum = pair.spectrum or first_spectrum(pair.scale, pair.digits)
        except ValueError as exc:
            diagnostics.append({"pair": index, "reason": str(exc)})
            continue
        if spectrum is None:
            diagnostics.append({
                "pair": index,
                "reason": "not admissible: no integer spectrum exists for (%d, %s)"
                          % (pair.scale, list(entry["b"]))})
        else:
            filled.append(dict(pair.to_json(), l=list(spectrum)))
    if diagnostics:
        return None, diagnostics
    try:
        spec = ConvolutionSpec.from_json(dict(data, alphabet=filled))
    except (ValueError, KeyError, TypeError) as exc:
        return None, [{"pair": "word", "reason": _detail(exc)}]
    return spec.to_json(), []


@main.command("validate")
@click.argument("specfile", type=click.Path(exists=True))
@click.pass_context
def validate_command(ctx, specfile):
    normalized, diagnostics = validate_spec(_read(specfile)[1])
    _emit(ctx, {"valid": False, "diagnostics": diagnostics} if diagnostics
          else {"valid": True, "spec": normalized})
    if diagnostics:
        ctx.exit(2)


if __name__ == "__main__":
    main(prog_name="spectral")
