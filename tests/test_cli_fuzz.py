"""Malformed input fed to every `spectral` command never ends in a traceback.

Each generated case takes a well-formed spec file (a convolution spec, an
atom list or an insertion spec), breaks parts of it (wrong types, missing
keys, letters outside the alphabet, bad fractions, zero scales), and runs
one command on it with generated argv values.  The command must exit
with a documented code: 0, 2 (a JSON error of kind "bad-input", a click
usage error, validate diagnostics or a contradicted example) or 3 (a
"depth-limit" or "irrational-zeros" JSON error, or an inconclusive
verdict).

Scales stay at most 12, digit sets at most 4 digits and depths at most 6,
so every run is short.  This test does not cover search time at large
scales: `tests/test_cli.py::test_many_spectra_pair_is_decided_without_listing_them`
runs `verdict` and `validate` on a pair with 8**7 spectra under a time
limit.
"""

import json

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralconv.catalog import (
    example_ids,
    insertion_target_five_sixths,
    mixed_word_spec,
    scale4_spec,
)
from spectralconv.cli import main

ERROR_EXITS = {"bad-input": 2, "depth-limit": 3, "irrational-zeros": 3}

ATOMS = [{"x": "0", "w": "1/2"}, {"x": "1", "w": "1/2"}]
# Well-formed inputs covering every spec form, word tail and exponent
# rule; the fuzzer breaks them apart.
VALID_SPECS = [
    scale4_spec().to_json(),
    mixed_word_spec().to_json(),
    insertion_target_five_sixths().to_json(),
    ATOMS,
    {"atoms": ATOMS},
    {"alphabet": [{"n": 2, "b": [0, 1]}, {"n": 2, "b": [0, 9]},
                  {"n": 2, "b": [0, 15]}],
     "word": {"prefix": [1, 2], "tail": {"periodic": [2, 3]}}},
    {"alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]},
                  {"n": 2, "b": [0, 3], "l": [0, 1]}],
     "word": {"prefix": [1],
              "tail": {"bernoulli": {"p": ["1/3", "2/3"], "seed": 3}}},
     "exponents": {"periodic": [1, 2]}},
    {"alphabet": [{"n": -2, "b": [0, 1], "l": [0, 1]}, {"n": 3, "b": [0, 1, 2]}],
     "word": {"tail": {"enumerate": 2, "offset": 1}},
     "exponents": {"list": [1, 2], "then": 1}},
    {"alphabet": [{"n": 4, "b": [0, 2]}], "exponents": {"unbounded": {"offset": 1}}},
    {"alphabet": [{"n": 6, "b": [0, 1, 2]}], "exponents": {"const": 1}},
]


def rarely(rare, common, odds=12):
    """`common`, except once in about `odds` draws `rare`."""
    return st.sampled_from([False] * (odds - 1) + [True]).flatmap(
        lambda pick: rare if pick else common)


junk = st.one_of(
    st.none(), st.booleans(), st.floats(-4, 4), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
    st.sampled_from(["1/0", "x", "", "1/2/3"]))

fraction_texts = rarely(st.sampled_from(["1/0", "abc", "", "1/2/3"]),
                        st.fractions(-8, 8, max_denominator=12).map(str))


def malformed(value):
    """`value` with some parts replaced by junk, near misses (zero, a
    negation, one past a letter or digit) or dropped dictionary keys."""
    if isinstance(value, dict):
        whole = st.fixed_dictionaries({k: malformed(v) for k, v in value.items()})
        dropped = st.sampled_from(sorted(value)).map(
            lambda key: {k: v for k, v in value.items() if k != key})
        whole = rarely(dropped, whole, odds=6)
    elif isinstance(value, list):
        whole = st.tuples(*map(malformed, value)).map(list)
        whole = rarely(st.one_of(whole.map(lambda v: v[:-1]),
                                 whole.map(lambda v: v + v[-1:])),
                       whole, odds=6)
    elif isinstance(value, int):
        whole = rarely(st.sampled_from([0, -1, value + 1, -value]),
                       st.just(value), odds=6)
    else:
        whole = st.just(value)
    return rarely(junk, whole, odds=20)


spec_files = rarely(
    st.one_of(junk.map(json.dumps), st.sampled_from([
        "{bad", "", "[1,",
        '{"alphabet": [{"n": 4, "b": [0, Infinity]}]}',
        '{"alphabet": [{"n": 1e400, "b": [0, 2]}]}',
        '{"alphabet": [{"n": 4, "b": [0, 2]}], "exponents": {"const": NaN}}',
    ])),
    st.one_of(*map(malformed, VALID_SPECS)).map(json.dumps))

# argv templates; upper-case words are filled from PARTS, SPEC is the file
TEMPLATES = [
    ["verdict", "SPEC", "--no-q"],
    ["verdict", "SPEC", "--window", "WINDOW"],
    ["validate", "SPEC"],
    ["iz", "SPEC"],
    ["conv", "truncate", "SPEC", "--depth", "DEPTH"],
    ["conv", "ft", "SPEC", "FRAC"],
    ["conv", "support", "SPEC"],
    ["conv", "density", "SPEC"],
    ["conv", "overlap", "SPEC", "SHIFT", "--depth", "DEPTH"],
    ["mask", "window", "SPEC", "--start", "DEPTH", "--halfwidth", "FRAC"],
    ["mask", "zeros", "INTS"],
    ["q", "SPEC", "--depth", "DEPTH", "--grid-size", "4"],
    ["mc", "SPEC", "--trials", "3", "--length", "DEPTH", "--probs", "PROBS",
     "--pattern", "INTS"],
    ["hadamard", "search", "SCALE", "INTS"],
    ["hadamard", "check", "SCALE", "INTS", "INTS"],
    ["example", "EXAMPLE", "--no-q", "--window", "WINDOW"],
]
integer_texts = rarely(st.sampled_from(["x", "", "1.5"]),
                       st.integers(-1, 6).map(str))
PARTS = {
    "DEPTH": integer_texts,
    "SHIFT": rarely(st.just("x"), st.integers(-3, 3).map(str)),
    "SCALE": rarely(st.just("x"), st.integers(-12, 12).map(str)),
    "FRAC": fraction_texts,
    "WINDOW": st.one_of(
        st.tuples(fraction_texts, fraction_texts).map(",".join),
        fraction_texts),
    "INTS": rarely(
        st.sampled_from(["x", "1,,2", "0,1.5"]),
        st.one_of(st.sampled_from(["0,1", "0,2", "0,1,2", "0,3", "1,2"]),
                  st.lists(st.integers(-12, 12), max_size=4).map(
                      lambda ds: ",".join(map(str, ds))))),
    "PROBS": st.lists(fraction_texts, min_size=1, max_size=3).map(",".join),
    "EXAMPLE": st.sampled_from(example_ids()),
}


@st.composite
def command_lines(draw):
    group = ["--budget-depth", draw(integer_texts),
             "--horizon", draw(integer_texts), "--seed", draw(integer_texts)]
    template = draw(st.sampled_from(TEMPLATES))
    return group + [draw(PARTS[w]) if w in PARTS else w for w in template]


@given(spec=spec_files, argv=command_lines())
@settings(max_examples=300, deadline=None)
def test_malformed_input_exits_with_a_documented_code(spec, argv):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("spec.json", "w") as handle:
            handle.write(spec)
        argv = ["spec.json" if w == "SPEC" else w for w in argv]
        result = runner.invoke(main, argv)
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit), (
        "%s raised %r" % (argv, result.exception))
    assert result.exit_code in (0, 2, 3), (argv, result.output)
    if not result.stdout:
        # click's own argument errors keep its usage message
        assert result.exit_code == 2 and "Usage:" in result.stderr, argv
        return
    payload = json.loads(result.stdout)
    assert result.stderr == ""
    if isinstance(payload, dict) and "error" in payload:
        assert sorted(payload) == ["detail", "error"]
        assert ERROR_EXITS[payload["error"]] == result.exit_code
