"""Command line surface: JSON payloads, exit codes, and file output."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import time_limit
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spectralconv.catalog import (
    insertion_target_five_sixths,
    mixed_word_spec,
    scale4_spec,
)
import spectralconv
from spectralconv.cli import _dumps, main, validate_spec
from spectralconv.measures import AtomicMeasure, frac_str


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def jp_file(tmp_path):
    path = tmp_path / "jp.json"
    path.write_text(json.dumps(scale4_spec().to_json()))
    return str(path)


@pytest.fixture
def bern_file(tmp_path):
    """(2,{0,3}), (2,{0,9}) with a fair Bernoulli tail: a word that never
    repeats, so `iz` walks one tail state per level up to its horizon."""
    path = tmp_path / "bern.json"
    path.write_text(json.dumps({
        "alphabet": [{"n": 2, "b": [0, 3], "l": [0, 1]}, {"n": 2, "b": [0, 9], "l": [0, 1]}],
        "word": {"prefix": [], "tail": {"bernoulli": {"seed": 5, "p": ["1/2", "1/2"]}}}}))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed_word_spec().to_json()))
    return str(path)


@pytest.fixture
def two_file(tmp_path):
    """(4,{0,10}), (2,{0,3}) with the word (2 1 1)^inf."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "alphabet": [{"n": 4, "b": [0, 10], "l": [0, 1]}, {"n": 2, "b": [0, 3], "l": [0, 1]}],
        "word": {"prefix": [], "tail": {"periodic": [2, 1, 1]}},
        "exponents": {"const": 1}}))
    return str(path)


@pytest.fixture
def sieve_file(tmp_path):
    """(4,{0,1},{0,2}), (4,{0,6},{0,1}) with the word 1 2^inf: the sieve
    certifies its periodic zero set empty."""
    path = tmp_path / "sieve.json"
    path.write_text(json.dumps({
        "alphabet": [{"n": 4, "b": [0, 1], "l": [0, 2]}, {"n": 4, "b": [0, 6], "l": [0, 1]}],
        "word": {"prefix": [1], "tail": {"periodic": [2]}}}))
    return str(path)


def _payload(result):
    assert result.output.strip(), result.output
    return json.loads(result.output)


def test_hadamard_search(runner):
    result = runner.invoke(main, ["hadamard", "search", "4", "0,2"])
    assert result.exit_code == 0
    assert _payload(result) == {
        "admissible": True,
        "digits": [0, 2],
        "scale": 4,
        "spectra": [[0, 1], [0, 3]],
    }


def test_hadamard_search_inadmissible(runner):
    result = runner.invoke(main, ["hadamard", "search", "3", "0,2"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["admissible"] is False
    assert payload["spectra"] == []


def test_hadamard_check(runner):
    result = runner.invoke(main, ["hadamard", "check", "4", "0,2", "0,1"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["admissible"] is True
    assert payload["unitarity_residual"] < 1e-10


def test_hadamard_check_on_a_huge_scale_needs_no_table_of_its_size(runner):
    """Only the spectrum's own differences are tested, on exponent lists
    cut down by exact reductions: no list of length |scale| is built."""
    with time_limit(MALFORMED_CASE_LIMIT_S):
        results = [runner.invoke(main, ["hadamard", "check", *args]) for args in (
            ("1000000007", "0,1", "0,5"),
            ("1000000007", "0,1", "0,-1"),
            ("2000000014", "0,1", "0,1000000007"))]
    assert [r.exit_code for r in results] == [0, 0, 0]
    assert [_payload(r)["admissible"] for r in results] == [False, False, True]


def test_mask_zeros(runner):
    result = runner.invoke(main, ["mask", "zeros", "0,1"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["rational"] == {"period": "1", "phases": ["1/2"]}


def test_mask_window(runner, jp_file):
    result = runner.invoke(main, ["mask", "window", jp_file,
                                  "--halfwidth", "2"])
    assert result.exit_code == 0
    assert _payload(result)["zeros"] == ["-1", "1"]


def test_mask_window_irrational_exit(runner, tmp_path):
    spec = {"alphabet": [{"n": 7, "b": [0, 1, 3, 5, 6]}]}
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["mask", "window", str(path)])
    assert result.exit_code == 3
    assert _payload(result)["error"] == "irrational-zeros"


def test_conv_support(runner, jp_file):
    result = runner.invoke(main, ["conv", "support", jp_file])
    assert result.exit_code == 0
    assert _payload(result) == {"hi": "2/3", "lo": "-2/3"}


def test_conv_truncate(runner, jp_file):
    result = runner.invoke(main, ["conv", "truncate", jp_file, "--depth", "2"])
    assert result.exit_code == 0
    atoms = _payload(result)["atoms"]
    assert [a["x"] for a in atoms] == ["0", "1/8", "1/2", "5/8"]
    assert set(a["w"] for a in atoms) == {"1/4"}


def test_conv_ft(runner, jp_file):
    result = runner.invoke(main, ["conv", "ft", jp_file, "1/2"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["re"] == pytest.approx(0.34631445649597403)
    assert payload["im"] == pytest.approx(-0.5998342337088758)
    assert payload["radius"] < 1e-8
    assert payload["abs_lower"] <= abs(
        complex(payload["re"], payload["im"])) <= payload["abs_upper"]


@pytest.mark.parametrize("xi,value", [("0", 1.0), ("1", 0.0)])
def test_conv_ft_is_exact_at_zero_and_at_a_transform_zero(runner, jp_file, xi, value):
    """xi = 0 and the exact zero xi = 1 of (4,{0,2}) are decided before any
    depth is chosen, so they come with radius 0."""
    result = runner.invoke(main, ["conv", "ft", jp_file, xi])
    assert result.exit_code == 0, result.output
    payload = _payload(result)
    assert (payload["re"], payload["im"], payload["radius"]) == (value, 0.0, 0.0)


def test_conv_density(runner, mixed_file):
    result = runner.invoke(main, ["conv", "density", mixed_file])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["breakpoints"] == ["0", "1", "3", "4"]
    assert payload["values"] == ["1/6", "1/3", "1/6"]
    assert payload["uniform_on_support"] is False


def test_conv_overlap(runner, tmp_path):
    spec = {"alphabet": [{"n": 4, "b": [0, 3], "l": [0, 2]}]}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["conv", "overlap", str(path), "1",
                                  "--depth", "4"])
    assert result.exit_code == 0
    assert _payload(result)["mass"] == "1/16"


def test_q_command_with_csv(runner, jp_file, tmp_path):
    csv_path = tmp_path / "q.csv"
    result = runner.invoke(main, ["--csv-out", str(csv_path),
                                  "q", jp_file, "--depth", "8",
                                  "--grid-size", "16"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["min_q"] == pytest.approx(0.9998999773522198)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "xi,q_value,radius,depth"
    assert lines[1].startswith("0.0,1.0,")
    assert lines[1].endswith(",8")
    assert len(lines) == 17


def test_q_csv_bytes_are_deterministic(runner, jp_file, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        result = runner.invoke(main, ["--csv-out", str(path),
                                      "q", jp_file, "--depth", "6",
                                      "--grid-size", "8"])
        assert result.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_threads_option_is_a_usage_error(runner, jp_file):
    result = runner.invoke(main, ["--threads", "2", "q", jp_file,
                                  "--depth", "6", "--grid-size", "8"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such option" in result.stderr and "--threads" in result.stderr


def test_iz_command_witness(runner, tmp_path):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps([{"x": "0", "w": "1/2"},
                                {"x": "1", "w": "1/2"}]))
    result = runner.invoke(main, ["iz", str(path)])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["kind"] == "nonempty-witness"
    assert payload["witness"] == "1/2"


def test_iz_command_on_weights_past_int64(runner, tmp_path):
    # the residual (2^70 + 1) + 3 z^2 goes through the F_p screen exactly
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps([
        {"x": "0", "w": "1180591620717411303425/1180591620717411303428"},
        {"x": "2", "w": "3/1180591620717411303428"}]))
    result = runner.invoke(main, ["iz", str(path)])
    assert result.exit_code == 0
    assert _payload(result)["kind"] == "empty-certified"


def test_iz_command_on_spec(runner, mixed_file):
    result = runner.invoke(main, ["iz", mixed_file])
    assert result.exit_code == 0
    assert _payload(result)["kind"] == "empty-certified"


def test_verdict_exit_zero_when_certified(runner, jp_file, tmp_path):
    out = tmp_path / "verdict.json"
    result = runner.invoke(main, ["--json-out", str(out),
                                  "verdict", jp_file, "--no-q"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["verdict"] == "SpectralCertified"
    assert payload["reason"] == "tail-difference-gcd"
    assert json.loads(out.read_text()) == payload


def test_verdict_exit_three_when_inconclusive(runner, tmp_path):
    spec = {"alphabet": [{"n": -2, "b": [0, 1], "l": [0, 1]},
                         {"n": 2, "b": [0, 3], "l": [0, 1]}],
            "word": {"prefix": [1], "tail": {"periodic": [2]}}}
    path = tmp_path / "mixed-sign.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["verdict", str(path), "--no-q"])
    assert result.exit_code == 3
    assert _payload(result)["verdict"] == "Inconclusive"


def test_family_verdict_does_not_depend_on_the_exponent_spelling(runner, tmp_path):
    """(2,{0,1}), (2,{0,3}) with the word 2 1 2 then 2^inf is in the
    two-letter family at stretch 1, so it is not spectral; {"periodic":
    [1]} is the same exponent sequence as {"const": 1}."""
    outputs = []
    for name, exponents in (("const", {"const": 1}), ("periodic", {"periodic": [1]}),
                            ("list", {"list": [1, 1], "then": 1})):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({
            "alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]},
                         {"n": 2, "b": [0, 3], "l": [0, 1]}],
            "word": {"prefix": [2, 1, 2], "tail": {"periodic": [2]}},
            "exponents": exponents}))
        result = runner.invoke(main, ["verdict", "--no-q", str(path)])
        outputs.append((result.exit_code, result.stdout))
    payload = json.loads(outputs[0][1])
    assert (outputs[0][0], payload["verdict"], payload["reason"]) == (
        0, "NotSpectralCertified", "special-family-classifier")
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# 1 then (2 3)^inf over (2,{0,1}), (2,{0,3}), (2,{0,9}): the limit tail has
# a nonempty zero set, so the verdict without Q ends inconclusive
SURVIVOR = {"alphabet": [{"n": 2, "b": [0, 1]}, {"n": 2, "b": [0, 3]},
                         {"n": 2, "b": [0, 9]}],
            "word": {"prefix": [1], "tail": {"periodic": [2, 3]}}}


def test_verdict_ignores_the_horizon(runner, tmp_path):
    path = tmp_path / "survivor.json"
    path.write_text(json.dumps(SURVIVOR))
    plain = runner.invoke(main, ["verdict", "--no-q", str(path)])
    bounded = runner.invoke(main, ["--horizon", "0", "verdict", "--no-q", str(path)])
    assert (plain.exit_code, bounded.exit_code) == (3, 3)
    assert bounded.stdout_bytes == plain.stdout_bytes
    iz = runner.invoke(main, ["--horizon", "0", "iz", str(path)])
    assert iz.exit_code == 2
    assert _payload(iz)["error"] == "bad-input"


# (8,{0,4}), (-4,{0,6}), (4,{0,5}) with the prefix 2 3 and then every word
# over letters 1 and 2: no exact branch decides it, and the grid Q does
EVIDENCE = {"alphabet": [{"n": 8, "b": [0, 4], "l": [0, 1]},
                         {"n": -4, "b": [0, 6], "l": [0, 1]},
                         {"n": 4, "b": [0, 5], "l": [0, 2]}],
            "word": {"prefix": [2, 3], "tail": {"enumerate": 2}}}


def test_verdict_reports_grid_evidence_only_with_q(runner, tmp_path):
    path = tmp_path / "evidence.json"
    path.write_text(json.dumps(EVIDENCE))
    result = runner.invoke(main, ["verdict", str(path)])
    assert result.exit_code == 0, result.output
    payload = _payload(result)
    assert (payload["verdict"], payload["reason"]) == (
        "SpectralEvidence", "q-grid-evidence")
    assert payload["q_report"]["min_q"] == 0.9999999026418426
    assert payload["q_report"]["tail_radius"] < 1e-13
    result = runner.invoke(main, ["verdict", "--no-q", str(path)])
    assert result.exit_code == 3, result.output
    payload = _payload(result)
    assert (payload["verdict"], payload["reason"]) == (
        "Inconclusive", "budget-exhausted")


# prefix 3, then every word over letters 1 and 2: level 3 is letter 2,
# whose scale 2*10^400 is past the float range
WIDE_SCALE = {"alphabet": [{"n": 4, "b": [0, 2], "l": [0, 1]},
                           {"n": 2 * 10 ** 400, "b": [0, 2], "l": [0, 5 * 10 ** 399]},
                           {"n": 2, "b": [0, 1], "l": [0, 1]}],
              "word": {"prefix": [3], "tail": {"enumerate": 2}}}


def test_verdict_reports_a_level_past_the_float_range(runner, tmp_path):
    """The grid Q is unavailable, and the verdict stays inconclusive."""
    path = tmp_path / "wide-scale.json"
    path.write_text(json.dumps(WIDE_SCALE))
    result = runner.invoke(main, ["verdict", str(path)])
    assert result.exit_code == 3, result.output
    payload = _payload(result)
    assert (payload["verdict"], payload["reason"]) == (
        "Inconclusive", "budget-exhausted")
    assert payload["trace"][-1] == (
        "grid Q unavailable: level 3: its scale or spectrum is past the "
        "float range of the Q sweep")


def test_mc_command_small_run(runner, tmp_path):
    spec = {"alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]},
                         {"n": 2, "b": [0, 3], "l": [0, 1]}]}
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["--seed", "7", "mc", str(path),
                                  "--trials", "20", "--length", "16",
                                  "--pattern", "1,2"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["trials"] == 20
    assert payload["verdicts"] == {"SpectralCertified": 20}
    assert payload["pattern_expected"] == "1/4"


def test_mc_seed_changes_draws(runner, tmp_path):
    spec = {"alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]},
                         {"n": 2, "b": [0, 3], "l": [0, 1]}]}
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(spec))
    a = runner.invoke(main, ["--seed", "1", "mc", str(path),
                             "--trials", "5", "--length", "8",
                             "--pattern", "1,2"])
    b = runner.invoke(main, ["--seed", "2", "mc", str(path),
                             "--trials", "5", "--length", "8",
                             "--pattern", "1,2"])
    assert _payload(a)["pattern_freq"] != _payload(b)["pattern_freq"]


def test_example_command_writes_json(runner, tmp_path):
    out = tmp_path / "payload.json"
    result = runner.invoke(main, ["--json-out", str(out),
                                  "example", "example-7.1"])
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["example"] == "example-7.1"
    assert payload["report"]["reason"] == "window-disjoint-translates"


def test_validate_accepts_and_normalizes(runner, tmp_path):
    spec = {"alphabet": [{"n": 4, "b": [0, 2]}]}
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["valid"] is True
    assert payload["spec"]["alphabet"][0]["l"] == [0, 1]


def test_validate_rejects_inadmissible_pairs(runner, tmp_path):
    spec = {"alphabet": [{"n": 3, "b": [0, 2]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    payload = _payload(result)
    assert payload["valid"] is False
    assert payload["diagnostics"] == [{
        "pair": 0,
        "reason": "not admissible: no integer spectrum exists for (3, [0, 2])",
    }]


def test_validate_rejects_alien_word_letters():
    normalized, diagnostics = validate_spec({
        "alphabet": [{"n": 4, "b": [0, 2], "l": [0, 1]}],
        "word": {"prefix": [3], "tail": {"periodic": [1]}},
    })
    assert normalized is None
    assert diagnostics[0]["pair"] == "word"
    assert "outside 1..1" in diagnostics[0]["reason"]
    assert validate_spec({
        "alphabet": [{"n": 4, "b": [0, 2], "l": [0, 1]}],
        "word": {"prefix": [1]},
    }) == (None, [{"pair": "word", "reason": "missing key 'tail'"}])


@pytest.mark.parametrize("alphabet,diagnostics", [
    ([{"n": 4, "b": [0, 2]}, 5, {"n": 4}],
     [{"pair": 1, "reason": "pair object needs keys 'n' and 'b': 5"},
      {"pair": 2, "reason": "pair object needs keys 'n' and 'b': {'n': 4}"}]),
    ([], [{"pair": None, "reason": "spec needs a nonempty alphabet"}]),
])
def test_validate_names_each_pair_it_cannot_read(alphabet, diagnostics):
    assert validate_spec({"alphabet": alphabet}) == (None, diagnostics)


# one pair in each shape a spec file may hold, and whether it is read
PAIR_VARIANTS = {
    "l omitted": ({"n": 4, "b": [0, 2]}, True),
    "l null": ({"n": 4, "b": [0, 2], "l": None}, True),
    "valid l": ({"n": 4, "b": [0, 2], "l": [0, 1]}, True),
    "wrong l": ({"n": 4, "b": [0, 2], "l": [0, 2]}, False),
    "n missing": ({"b": [0, 2]}, False),
    "not an object": ([4, [0, 2]], False),
}


@pytest.mark.parametrize("name", sorted(PAIR_VARIANTS))
def test_validate_accepts_a_pair_exactly_when_verdict_reads_it(runner, tmp_path, name):
    pair, readable = PAIR_VARIANTS[name]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"alphabet": [pair]}))
    validate = runner.invoke(main, ["validate", str(path)])
    verdict = runner.invoke(main, ["verdict", "--no-q", str(path)])
    assert (validate.exit_code, _payload(validate)["valid"]) == ((0, True) if readable
                                                                 else (2, False))
    assert (_payload(verdict).get("error") != "bad-input") is readable, verdict.output


# Malformed inputs: (argv, environment, error kind, exit code).  "{jp}"
# and "{ins}" stand for the jorgensen-pedersen and example-7.1 spec files,
# "{broken}" for a file holding "{bad", "{nx}" for a pair with n "x", and
# the other names for the spec files of MALFORMED_FILES below.
MALFORMED = [
    ("conv ft {jp} abc", {}, "bad-input", 2),
    ("q {jp} --depth 0", {}, "bad-input", 2),
    ("conv truncate {jp} --depth 5000", {}, "depth-limit", 3),
    ("conv truncate {jp} --depth 40", {}, "depth-limit", 3),
    ("conv overlap {jp} 1 --depth 40", {}, "depth-limit", 3),
    ("q {jp} --depth 17 --grid-size 1", {"SPECTRAL_MAX_DEPTH": "16"}, "depth-limit", 3),
    ("q {jp} --depth 100000 --grid-size 1", {}, "depth-limit", 3),
    ("verdict {broken}", {}, "bad-input", 2),
    ("verdict {nx}", {}, "bad-input", 2),
    ("verdict {jp} --window 1,x", {}, "bad-input", 2),
    ("conv density {jp}", {}, "bad-input", 2),
    ("conv overlap {jp} 0", {}, "bad-input", 2),
    ("hadamard search 100 0,1", {}, "bad-input", 2),
    ("mask zeros 0,0", {}, "bad-input", 2),
    ("conv truncate {jp}", {"SPECTRAL_MAX_DEPTH": "x"}, "bad-input", 2),
    ("mc {jp} --pattern 0", {}, "bad-input", 2),
    ("verdict {enum_1e300}", {}, "bad-input", 2),
    ("verdict {enum_1e8}", {}, "bad-input", 2),
    ("conv truncate {enum_1e8}", {}, "bad-input", 2),
    ("iz {zero_weight}", {}, "bad-input", 2),
    ("iz {negative_weight}", {}, "bad-input", 2),
    ("iz {short_weights}", {}, "bad-input", 2),
    ("iz {long_weights}", {}, "bad-input", 2),
    ("iz {int_position}", {}, "bad-input", 2),
    ("conv ft {zero_weight} 1/3", {}, "bad-input", 2),
    ("validate {float_scale}", {}, "bad-input", 2),
    ("verdict --no-q {float_scale}", {}, "bad-input", 2),
    ("verdict --no-q {float_exponent}", {}, "bad-input", 2),
    ("verdict --no-q {float_prefix}", {}, "bad-input", 2),
    ("verdict --no-q {float_periodic}", {}, "bad-input", 2),
    ("verdict --no-q {bool_enumerate}", {}, "bad-input", 2),
    ("verdict --no-q {float_insertion}", {}, "bad-input", 2),
    ("conv ft {jp} 1/3 --tol inf", {}, "bad-input", 2),
    ("conv ft {jp} 1/3 --tol nan", {}, "bad-input", 2),
    ("q {jp} --tol inf", {}, "bad-input", 2),
    ("q {jp} --tol nan", {}, "bad-input", 2),
    ("q {jp} --budget-atoms 0", {}, "bad-input", 2),
    ("q {jp} --budget-atoms -1", {}, "bad-input", 2),
    ("q {jp} --grid-size 0", {}, "bad-input", 2),
    ("q {jp} --grid-size -3", {}, "bad-input", 2),
    ("q {wide}", {}, "bad-input", 2),
    ("q {far_level} --depth 2 --grid-size 2", {}, "bad-input", 2),
    ("mc {alphabet} --trials 0", {}, "bad-input", 2),
    ("mc {alphabet} --trials -1", {}, "bad-input", 2),
    ("mc {alphabet} --length 0", {}, "bad-input", 2),
    ("mc {alphabet} --length -1", {}, "bad-input", 2),
    ("mc {alphabet} --length 2 --pattern 1,1,1", {}, "bad-input", 2),
    ("mc {alphabet} --probs 1/2,1/4,1/4", {}, "bad-input", 2),
    ("mc {empty_alphabet}", {}, "bad-input", 2),
    ("mc {no_alphabet}", {}, "bad-input", 2),
    ("verdict --no-q {int_pair}", {}, "bad-input", 2),
    ("verdict --no-q {no_tail}", {}, "bad-input", 2),
    ("verdict --no-q {no_fixed}", {}, "bad-input", 2),
    ("iz {no_x}", {}, "bad-input", 2),
    ("verdict --no-q {no_p}", {}, "bad-input", 2),
    ("verdict --no-q {jp} --window 0,1", {}, "bad-input", 2),
    ("example jorgensen-pedersen --no-q --window 0,1", {}, "bad-input", 2),
    ("--budget-depth 0 verdict {evidence}", {}, "bad-input", 2),
]

# The refusals of each spec-file rule, one file each (in MALFORMED_FILES),
# with the detail that names the rule.
SPEC_RULE_DETAILS = {
    "nan_number": "JSON numbers must be finite, got NaN",
    "infinite_number": "JSON numbers must be finite, got Infinity",
    "int_tail": "tail rule must be a JSON object",
    "unknown_tail": "unknown tail rule: ['cycle']",
    "list_word": "word must be a JSON object",
    "int_exponents": "exponent rule must be a JSON object",
    "int_unbounded": "unbounded exponent rule must be a JSON object",
    "scale_one": "scale must be an integer >= 2",
    "divisor_zero": "divisor must be positive",
    "target_zero": "target must be positive",
    "empty_fixed": "fixed part must be nonempty",
    "colliding_fixed": "insertion digit 6 collides with the fixed part",
}
MALFORMED += [("verdict --no-q {%s}" % name, {}, "bad-input", 2)
              for name in SPEC_RULE_DETAILS]

# Every command that reads a spec file, with the kinds of spec file it
# takes; each refuses the kinds that it does not take, which the files of
# KIND_FILES hold, by naming what it expected and what it got.
FILE_COMMANDS = {
    "mask window %s": "a convolution spec",
    "conv truncate %s": "a convolution spec",
    "conv ft %s 1/3": "a convolution spec",
    "conv support %s": "a convolution spec",
    "conv density %s": "a convolution spec",
    "conv overlap %s 1": "a convolution spec",
    "q %s": "a convolution spec",
    "mc %s": "a convolution spec",
    "validate %s": "a convolution spec",
    "iz %s": "a convolution spec or an atom list",
    "verdict --no-q %s": "a convolution spec or an insertion spec",
}
KIND_FILES = {"{atoms}": "an atom list", "{atom_object}": "an atom list",
              "{ins}": "an insertion spec", "{scalar}": "a JSON scalar"}
WRONG_KINDS = {command % name: "expected %s, got %s" % (taken, kind)
               for command, taken in FILE_COMMANDS.items()
               for name, kind in KIND_FILES.items() if kind not in taken}
MALFORMED += [(command, {}, "bad-input", 2) for command in WRONG_KINDS]

# Bad option values are refused up front with a message of their own,
# not with whatever a deeper layer (numpy, a pattern count) would say, and
# a missing key or a wrong kind of file is named.
MALFORMED_DETAILS = {
    "conv truncate {jp} --depth 40": "truncation to depth 40 needs 8388608 "
        "atoms at level 23, past the bound of 4194304 atoms per level",
    "conv ft {jp} 1/3 --tol nan": "tolerance must be positive",
    "q {jp} --tol inf": "tolerance must be positive",
    "q {jp} --budget-atoms 0": "budget_atoms must be at least 1",
    "q {jp} --grid-size 0": "grid must be nonempty",
    "q {wide}": "tail support width %d/3 is past 2^48, where the Q tail fit "
                "would overflow a float" % 10 ** 200,
    "q {far_level} --depth 2 --grid-size 2":
        "level 1: its scale or spectrum is past the float range of the Q sweep",
    "mc {alphabet} --trials -1": "trials must be at least 1",
    "mc {alphabet} --length -1": "length must be at least 1",
    "mc {alphabet} --length 2 --pattern 1,1,1":
        "pattern must be nonempty and no longer than the prefix",
    "mc {alphabet} --probs 1/2,1/4,1/4": "need one probability per alphabet letter",
    "mc {empty_alphabet}": "spec needs a nonempty alphabet",
    "mc {no_alphabet}": "spec needs a nonempty alphabet",
    "verdict --no-q {int_pair}": "pair object needs keys 'n' and 'b': 5",
    "verdict --no-q {no_tail}": "missing key 'tail'",
    "verdict --no-q {no_fixed}": "missing key 'fixed'",
    "iz {no_x}": "missing key 'x'",
    "verdict --no-q {no_p}": "missing key 'p'",
    "verdict --no-q {jp} --window 0,1": "a window applies to insertion specs only",
    "example jorgensen-pedersen --no-q --window 0,1":
        "a window applies to insertion specs only",
    "--budget-depth 0 verdict {evidence}": "depth must be at least 1",
    **WRONG_KINDS,
    **{"verdict --no-q {%s}" % name: detail for name, detail in SPEC_RULE_DETAILS.items()},
}

# A huge enumeration tail must be refused before its letters are listed,
# atom lists are checked for positive weights summing to 1 and for string
# positions, and integers in specs are never truncated from other numbers.
# "alphabet" is a well-formed `mc` alphabet, for the bad option values;
# "int_pair" holds a pair that is not a pair object;
# "wide" has a tail support width of 10^200/3, too wide for the Q tail fit;
# "far_level" has the level scale 2^2001, past the float range;
# "evidence" is EVIDENCE, which a verdict takes to the grid Q;
# "atoms", "atom_object" and "scalar" are read only to be refused, the
# "no_" files each lack the key they name, and the files of
# SPEC_RULE_DETAILS each break the rule that its detail names.
ONE_LETTER = [{"n": 4, "b": [0, 2]}]
INSERTION = insertion_target_five_sixths().to_json()
MALFORMED_FILES = {
    "enum_1e300": {"alphabet": [{"n": 4, "b": [0, 2]}],
                   "word": {"tail": {"enumerate": 1e300}}},
    "enum_1e8": {"alphabet": [{"n": 4, "b": [0, 2]}],
                 "word": {"tail": {"enumerate": 10**8}}},
    "zero_weight": [{"x": "0", "w": "0"}, {"x": "1", "w": "1"}],
    "negative_weight": [{"x": "0", "w": "-1/2"}, {"x": "1", "w": "3/2"}],
    "short_weights": [{"x": "0", "w": "1/2"}, {"x": "1/3", "w": "1/3"}],
    "long_weights": [{"x": "0", "w": "1/2"}, {"x": "1/3", "w": "2/3"}],
    "int_position": [{"x": 0, "w": "1/2"}, {"x": "1", "w": "1/2"}],
    "float_scale": {"alphabet": [{"n": 4.5, "b": [0, 2]}]},
    "float_exponent": {"alphabet": [{"n": 4, "b": [0, 2]}],
                       "exponents": {"const": 1.9}},
    "float_prefix": {"alphabet": [{"n": 4, "b": [0, 2]}],
                     "word": {"prefix": [1.7], "tail": {"periodic": [1]}}},
    "float_periodic": {"alphabet": [{"n": 4, "b": [0, 2]}],
                       "word": {"tail": {"periodic": [1.2]}}},
    "bool_enumerate": {"alphabet": [{"n": 4, "b": [0, 2]}],
                       "word": {"tail": {"enumerate": True}}},
    "float_insertion": {"scale": 6, "regular": [0, 2, 4], "fixed": [2, 4],
                        "target": "5/6", "divisor": 3.0, "spectrum": [0, 2, 4]},
    "alphabet": {"alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]},
                              {"n": 2, "b": [0, 3], "l": [0, 1]}]},
    "empty_alphabet": {"alphabet": []},
    "no_alphabet": {},
    "int_pair": {"alphabet": [5]},
    "wide": {"alphabet": [{"n": 2 * 10 ** 200, "b": [0, 10 ** 200], "l": [0, 1]},
                          {"n": 4, "b": [0, 2], "l": [0, 1]}],
             "word": {"tail": {"periodic": [1, 2]}}},
    "far_level": {"alphabet": [{"n": 2, "b": [0, 1], "l": [0, 1]}],
                  "exponents": {"unbounded": {"offset": 2000}}},
    "evidence": EVIDENCE,
    "atoms": [{"x": "0", "w": "1/2"}, {"x": "1", "w": "1/2"}],
    "atom_object": {"atoms": [{"x": "0", "w": "1/2"}, {"x": "1", "w": "1/2"}]},
    "scalar": 5,
    "no_tail": {"alphabet": [{"n": 4, "b": [0, 2]}], "word": {"prefix": [1]}},
    "no_fixed": {"scale": 6, "regular": [0, 2, 4], "target": "5/6", "divisor": 3,
                 "spectrum": [0, 2, 4]},
    "no_x": [{"w": "1/2"}, {"x": "1", "w": "1/2"}],
    "no_p": {"alphabet": [{"n": 4, "b": [0, 2]}],
             "word": {"tail": {"bernoulli": {"seed": 3}}}},
    "nan_number": {"alphabet": ONE_LETTER, "exponents": {"const": float("nan")}},
    "infinite_number": {"alphabet": [{"n": 4, "b": [0, float("inf")]}]},
    "int_tail": {"alphabet": ONE_LETTER, "word": {"tail": 5}},
    "unknown_tail": {"alphabet": ONE_LETTER, "word": {"tail": {"cycle": [1]}}},
    "list_word": {"alphabet": ONE_LETTER, "word": [1]},
    "int_exponents": {"alphabet": ONE_LETTER, "exponents": 2},
    "int_unbounded": {"alphabet": ONE_LETTER, "exponents": {"unbounded": 5}},
    "scale_one": {**INSERTION, "scale": 1},
    "divisor_zero": {**INSERTION, "divisor": 0},
    "target_zero": {**INSERTION, "target": "0"},
    "empty_fixed": {**INSERTION, "fixed": []},
    "colliding_fixed": {**INSERTION, "fixed": [2, 6]},
}

# seconds one malformed case may take before it counts as a hang
MALFORMED_CASE_LIMIT_S = 10


@pytest.mark.parametrize("command,env,kind,code", MALFORMED,
                         ids=[c for c, _, _, _ in MALFORMED])
def test_malformed_input_gets_one_json_error(runner, jp_file, tmp_path,
                                             command, env, kind, code):
    files = {"jp": jp_file}
    for name, text in (
            ("ins", json.dumps(INSERTION)),
            ("broken", "{bad"),
            ("nx", json.dumps({"alphabet": [{"n": "x", "b": [0, 1]}]})),
            *((name, json.dumps(data)) for name, data in MALFORMED_FILES.items())):
        path = tmp_path / (name + ".json")
        path.write_text(text)
        files[name] = str(path)
    with time_limit(MALFORMED_CASE_LIMIT_S):
        result = runner.invoke(main, command.format(**files).split(), env=env)
    assert result.exit_code == code, result.output
    assert result.stderr == ""
    payload = json.loads(result.stdout)
    assert sorted(payload) == ["detail", "error"]
    assert payload["error"] == kind
    if command in MALFORMED_DETAILS:
        assert payload["detail"] == MALFORMED_DETAILS[command]


# 8**7 spectra: the admissibility checks must stop at the first one
SPECTRA_8_POW_7 = {"alphabet": [{"n": 64, "b": [0, 8, 16, 24, 32, 40, 48, 56]}]}


def test_many_spectra_pair_is_decided_without_listing_them(runner, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps(SPECTRA_8_POW_7))
    with time_limit(MALFORMED_CASE_LIMIT_S):
        verdict = runner.invoke(main, ["verdict", "--no-q", str(path)])
        validate = runner.invoke(main, ["validate", str(path)])
    assert verdict.exit_code == 0, verdict.output
    payload = _payload(verdict)
    assert (payload["verdict"], payload["reason"]) == (
        "SpectralCertified", "tail-difference-gcd")
    assert validate.exit_code == 0, validate.output
    assert _payload(validate)["spec"]["alphabet"][0]["l"] == list(range(8))


def test_q_runs_at_the_depth_cap(runner, jp_file):
    """The Q grid obeys the truncation cap: depth 16 runs under a cap of
    16, and depth 17 exits 3 (in MALFORMED)."""
    result = runner.invoke(main, ["q", jp_file, "--depth", "16", "--grid-size", "1"],
                           env={"SPECTRAL_MAX_DEPTH": "16"})
    assert result.exit_code == 0, result.output
    assert _payload(result)["depth"] == 16


def test_depth_limit_detail_names_the_setting(runner, jp_file):
    result = runner.invoke(main, ["conv", "truncate", jp_file,
                                  "--depth", "5000"])
    assert _payload(result)["detail"] == (
        "evaluation needs about 5000 levels but the cap is 4096 "
        "(raise SPECTRAL_MAX_DEPTH)")


@pytest.mark.parametrize("option", ["--json-out", "--csv-out"])
def test_unwritable_output_file_gets_one_json_error(runner, jp_file,
                                                    tmp_path, option):
    missing = str(tmp_path / "no-such-dir" / "out")
    result = runner.invoke(main, [option, missing, "q", jp_file,
                                  "--depth", "2", "--grid-size", "2"])
    assert result.exit_code == 2
    payload = json.loads(result.stdout)
    assert payload["error"] == "bad-input"
    assert missing in payload["detail"]


def test_click_argument_errors_keep_the_usage_message(runner, jp_file):
    result = runner.invoke(main, ["conv", "truncate", jp_file,
                                  "--depth", "many"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Usage: " in result.stderr


# SHA-256 of stdout for commands whose output holds no float but the
# rounding of an exact fraction, pinned so a refactor of the exact layers
# cannot change a byte.  "{jp}" and "{mixed}" stand for the catalog's
# jorgensen-pedersen and example-1.7 spec files, "{two}" for two_file.
GOLDEN_STDOUT = [
    ("example example-1.7 --no-q",
     "5553006bfa66df191ef96d240c8c14732bf8b16b9dc2834f0ffe4960fe49076b"),
    ("example example-7.1 --no-q",
     "429a639a128f8468a7cf202b0a757bbb8b82f2274c59c775b2c8aa67548ca309"),
    ("example example-7.2 --no-q",
     "15398253e630951dc73c9ced657cd7c7d7f400d82029392b9ae336dd73b618d8"),
    ("example jorgensen-pedersen --no-q",
     "46da44a94afcb1b31076a1e97ca6a50b27487b335c3723a35996b921bc75b97e"),
    ("example theorem-1.6-grid --no-q",
     "a432103963e159d0501b7688b4b7b049651b2fef0952bc064470cbfe8f66bbd1"),
    ("conv truncate {jp}",
     "85f8f855c3de716dc1cf472dcc0cf1e7cb69877fc57d6bc663fb82f6762d2926"),
    ("conv truncate {jp} --depth 16",
     "914560b3640df7a5fbf8fc062fc95a8bcc93a49ef8f32bbeae19a635031e2176"),
    ("conv overlap {jp} 1",
     "be439f928a898949eaf771bb9b6c4e2f474239f3ee641ff72b1a39c79bc7363f"),
    ("mask window {jp}",
     "7ee35d0cf7e6da3d07476e9a4b6d4db71e4f0d80bea096ab5fe2cfad7ddc68bd"),
    ("iz {jp}",
     "51b55af5ddef29f99796ad94f0135b92fffdc6e065887bb2aefaea3ff6777250"),
    ("conv truncate {mixed}",
     "1e6e18dd9c1289fed53facf951bb3b627650cb2ff922e703d7409e7abdbd0fe9"),
    ("conv overlap {mixed} 1",
     "a445cf10995996032d8929ca083ec8723a04728287254de0218c60172c879f54"),
    ("mask window {mixed}",
     "00ed4c2bb0c8454c00b0407b3a5e00e0bc5b1ffc50be0529dc3d21f9dbf33593"),
    ("iz {mixed}",
     "f508a4ffff06505fc8b4fa36e661fde4c433b95025bc5ceaa5edc3876d5c4c0a"),
    ("--horizon 16 iz {bern}",
     "e97985ab4698da8c1faf486decabfe4b17681523ec5cb0276e9221bfc7ea5ccd"),
    ("conv truncate {two} --depth 13",
     "cd4c1b1cb6011e6cf1bda953f64a1fff14147ca00b6487dbf7fdd6144c72e0ca"),
    ("--seed 7 mc {two} --trials 200 --probs 1/3,2/3",
     "a74e341802623fe1c4efc3add277107661c9a0dac9dba13af9af327ff1903c04"),
    ("conv density {mixed}",
     "0bac58fa772ddd0fd9048f182c67b50feee8fd755d26aca8092b813244bf0b00"),
    ("validate {two}",
     "0e2dc31ed2bd3fae8aa9cbc41eeb574e9f368fc48f6ec09b6f771764cb5e7548"),
    ("validate {bern}",
     "268d8ff7c4615115fcb5cb2a08611ae697860ef56db63eec7ca92494e66ad093"),
    ("verdict --no-q {mixed}",
     "7163e7b701c28bcaa4144eaf3b021ce0d7b298cffb10d91c9fc290a406db4775"),
    ("verdict --no-q {sieve}",
     "ba949761077fc512bd1c3a8d10bcd1a0be14c6ba8670ea24e8b3fc4850a608f5"),
]


@pytest.mark.parametrize("command,digest", GOLDEN_STDOUT,
                         ids=[c for c, _ in GOLDEN_STDOUT])
def test_float_free_stdout_is_pinned(runner, jp_file, mixed_file, two_file, bern_file,
                                     sieve_file, command, digest):
    argv = command.format(jp=jp_file, mixed=mixed_file, two=two_file,
                          bern=bern_file, sieve=sieve_file).split()
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


# Strings that look like the emitter's separators or brackets, escapes,
# control, non-ASCII and astral characters.
_TRICKY_TEXT = st.lists(st.one_of(
    st.sampled_from(["],\n", "}, {", "[", "]", "{", "}", ",\n    [", '"',
                     "\\", "\x00", "\x1f", "\u00e9", "\U0001F600"]),
    st.text(max_size=3)), max_size=4).map("".join)
_SCALAR_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf]),
    _TRICKY_TEXT)


class _Dict(dict):
    pass


class _List(list):
    pass


def _with_empty(uniform):
    """An otherwise uniform list with one empty member spliced in."""
    return st.tuples(uniform, st.sampled_from([[], (), {}]),
                     st.integers(0, 4)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


_LEAF_LISTS = st.lists(_SCALAR_VALUES, min_size=1, max_size=3)
_LEAF_DICTS = st.dictionaries(_TRICKY_TEXT, _SCALAR_VALUES, min_size=1,
                              max_size=3)
_UNIFORM = st.one_of(st.lists(_LEAF_LISTS, min_size=1, max_size=4),
                     st.lists(_LEAF_LISTS.map(tuple), min_size=1, max_size=4),
                     st.lists(_LEAF_DICTS, min_size=1, max_size=4))


def _containers(children):
    lists = st.lists(children, max_size=4)
    dicts = st.dictionaries(_TRICKY_TEXT, children, max_size=4)
    return st.one_of(lists, lists.map(tuple), lists.map(_List), dicts,
                     dicts.map(_Dict))


_ROW_SHAPES = st.tuples(st.integers(0, 4), st.integers(1, 4))
# 2-D integer arrays, as `hadamard search` prints its spectra
_ROW_ARRAYS = st.one_of(arrays(np.uint8, _ROW_SHAPES, elements=st.integers(0, 255)),
                        arrays(np.int64, _ROW_SHAPES, elements=st.integers(-3, 300)))


# 2^a 3^b 5^c, so that the atoms reduce to several distinct denominators
_DENOMINATORS = st.builds(lambda a, b, c: 2**a * 3**b * 5**c, st.integers(0, 70),
                          st.integers(0, 2), st.integers(0, 1))


@st.composite
def _measures(draw):
    """Atomic measures, as `conv truncate` prints them: numerators of
    either sign, in int64 and past 2^63, and weights over denominators
    with many divisors."""
    big = st.integers(-2**66, 2**66)
    nums = draw(st.lists(st.one_of(st.integers(-40, 40), big), min_size=1, max_size=6,
                         unique=True))
    weights = draw(st.lists(st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12, 30]),
                                      st.integers(1, 2**66)),
                            min_size=len(nums), max_size=len(nums)))
    return AtomicMeasure.from_lattice(draw(_DENOMINATORS), np.array(nums, object),
                                      np.array(weights, object))


JSON_TREES = st.recursive(
    st.one_of(_SCALAR_VALUES, _UNIFORM, _with_empty(_UNIFORM), _ROW_ARRAYS, _measures()),
    _containers, max_leaves=30)


def _listed(obj):
    """An array as the list of its rows, a measure as the list of its
    atoms' {"w", "x"} frac_str records."""
    if isinstance(obj, AtomicMeasure):
        return [{"w": frac_str(w), "x": frac_str(x)} for x, w in obj.atoms]
    return obj.tolist()


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_emitter_matches_json_dumps(tree):
    """Every array is compared as the list of its rows, and every measure
    as the list of its atoms."""
    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2, default=_listed)


@pytest.mark.parametrize("array", [np.zeros((2, 2), dtype=bool), np.zeros((2, 2)),
                                   np.zeros(3, dtype=int), np.zeros((1, 2, 2), dtype=int),
                                   np.zeros((2, 2), [("x", object)]),
                                   np.zeros(2, [("x", int, (2,))]),
                                   np.zeros(2, [("w", object), ("x", object)])])
def test_emitter_refuses_arrays_that_are_not_integer_rows(array):
    with pytest.raises(TypeError):
        _dumps({"spectra": array})


def test_search_with_a_huge_limit_builds_no_table_of_its_size(runner):
    """One good difference, 50000, at scale 100000: only the residues the
    sweep reaches get a compatibility row."""
    with time_limit(MALFORMED_CASE_LIMIT_S):
        result = runner.invoke(main, ["hadamard", "search", "--limit", "100000", "100000", "0,1"])
    assert result.exit_code == 0, result.output
    assert result.stdout == json.dumps({"admissible": True, "digits": [0, 1], "scale": 100000,
                                        "spectra": [[0, 50000]]}, indent=2) + "\n"


def test_json_out_file_equals_stdout_for_16384_spectra(runner, tmp_path):
    out = tmp_path / "spectra.json"
    result = runner.invoke(main, ["--json-out", str(out), "hadamard", "search",
                                  "32", "20,24,32,40,68,76,80,92"])
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert len(payload["spectra"]) == 16384
    assert result.stdout == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert out.read_text() == result.stdout


def test_json_out_file_equals_stdout_for_a_truncation(runner, two_file, tmp_path):
    out = tmp_path / "atoms.json"
    result = runner.invoke(main, ["--json-out", str(out), "conv", "truncate", two_file,
                                  "--depth", "13"])
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)["atoms"]) == 8192
    assert out.read_text() == result.stdout


def test_no_command_keeps_its_stdout_alive():
    """The document goes to the stdout of the moment and nothing holds on
    to that stream afterwards, under redirect_stdout as under CliRunner,
    so an in-process caller does not keep every document it was printed."""
    argv = ["hadamard", "search", "32", "20,24,32,40,68,76,80,92"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main.main(args=argv, prog_name="spectral", standalone_mode=False)
    assert len(json.loads(out.getvalue())["spectra"]) == 16384
    streams = [weakref.ref(out)]
    del out
    with CliRunner().isolation() as (out, *_):
        main.main(args=argv, prog_name="spectral", standalone_mode=False)
        streams.append(weakref.ref(sys.stdout))
    assert len(json.loads(out.getvalue())["spectra"]) == 16384
    del out
    gc.collect()
    assert [stream() for stream in streams] == [None, None]


def test_module_entry_point_prints_the_group_help():
    src = os.path.dirname(os.path.dirname(spectralconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-m", "spectralconv", "--help"],
                            env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: spectral [OPTIONS] COMMAND")
    assert "Spectrality toolkit for infinite convolution measures." in \
        result.stdout


# Exec keeps the high-water RSS of the process that forked, so a child of
# this test process would start from the test process's own peak.  The
# launcher forks `spectral` from a bare interpreter, whose peak is below
# any `spectral` run's, and reports that child's peak on its last line.
_LAUNCHER = """
import os, sys
pid = os.fork()
if not pid:
    os.execv(sys.executable, [sys.executable, "-m", "spectralconv", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _spectral_run(args, env):
    """Exit code, stdout and peak RSS (KiB) of one `spectral` child process."""
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, int(proc.stderr.split()[-1])


def test_a_truncation_refusal_costs_the_same_at_any_depth(jp_file):
    """(4,{0,2}) doubles its atoms each level, so every depth past 22 is
    refused at level 23, before that level is built; the levels that were
    built fit int64 whatever depth was asked, so the peak is the same."""
    src = os.path.dirname(os.path.dirname(spectralconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    peaks = []
    for depth in ("23", "400"):
        code, out, peak = _spectral_run(["conv", "truncate", jp_file, "--depth", depth], env)
        payload = json.loads(out)
        assert (code, payload["error"]) == (3, "depth-limit"), out
        assert "at level 23," in payload["detail"]
        peaks.append(peak)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_a_truncation_peaks_at_a_few_times_its_document(jp_file):
    """The depth-18 truncation of (4,{0,2}), 2^18 atoms in 18.6 MB, peaks
    at most 5 bytes of RSS per byte of its document above a depth-23
    refusal that the depth cap makes before any level is built (the
    interpreter and its imports).  Measured on Linux, CPython 3.11 and
    numpy 2.4: 7.9-8.2 when the atoms went through record arrays and
    click.echo, 3.3-3.5 since they are printed from the lattice
    integers and the document is written as built."""
    src = os.path.dirname(os.path.dirname(spectralconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code, out, floor = _spectral_run(["conv", "truncate", jp_file, "--depth", "23"],
                                     dict(env, SPECTRAL_MAX_DEPTH="18"))
    assert (code, json.loads(out)["error"]) == (3, "depth-limit"), out
    code, out, peak = _spectral_run(["conv", "truncate", jp_file, "--depth", "18"], env)
    assert code == 0
    assert len(json.loads(out)["atoms"]) == 2**18
    assert (peak - floor) * 1024 <= 5 * len(out), (peak, floor, len(out))


_Q_FAULTS = """
import resource
from fractions import Fraction
from spectralconv.convolution import ConstantExponents, ConvolutionSpec
from spectralconv.hadamard import AdmissiblePair
from spectralconv.spectrality import q_partial
from spectralconv.words import PeriodicTail, SymbolicWord
spec = ConvolutionSpec((AdmissiblePair(6, (0, 1, 2), (0, 2, 4)),),
                       SymbolicWord((), PeriodicTail((1,))), ConstantExponents(1))
grid = [Fraction(j, 128) for j in range(128)]
for depth in (9, 10):
    q_partial(spec, depth, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    q_partial(spec, depth, grid)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
def test_q_point_blocks_do_not_fault_their_pages_in_again():
    """(6,{0,1,2}) on 128 points runs one-point blocks, at depth 9 pruning
    at its last level and at depth 10 through the per-entry kernel.  The
    blocks of a call reuse one set of buffers, so a repeated call faults
    in about those buffers' pages, not a block's arrays once per block.
    Minor faults of the second call in a fresh interpreter, on Linux with
    CPython 3.11 and numpy 2.4: 9,302 and 58,454 when every block
    allocated its own arrays, 319 and 602 since."""
    src = os.path.dirname(os.path.dirname(spectralconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _Q_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 2 and max(faults) <= 3000, faults


def _spectral_run_capped(args, env, kib):
    """A `spectral` child process whose address space is capped at `kib` KiB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (kib << 10, kib << 10))
    return subprocess.run([sys.executable, "-m", "spectralconv", *args], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)


def test_running_out_of_memory_gives_one_json_error(jp_file):
    """Depth 22 on (4,{0,2}) is under the atom bound, but its document of
    about 300 MB does not fit under the least cap, in steps of 25,000 KiB
    from 200,000, at which depth 23 is refused cleanly, plus 100,000 KiB."""
    src = os.path.dirname(os.path.dirname(spectralconv.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    kib = 200_000
    while True:
        run = _spectral_run_capped(["conv", "truncate", jp_file, "--depth", "23"], env, kib)
        if run.returncode == 3 and '"depth-limit"' in run.stdout:
            break
        kib += 25_000
        assert kib <= 4_000_000, run.stderr[-2000:]
    run = _spectral_run_capped(["conv", "truncate", jp_file, "--depth", "22"], env,
                               kib + 100_000)
    assert (run.returncode, run.stderr) == (3, ""), (kib, run.stderr[-2000:])
    payload = json.loads(run.stdout)
    assert sorted(payload) == ["detail", "error"]
    assert payload["error"] == "out-of-memory"
