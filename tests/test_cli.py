"""Command line surface: JSON payloads, exit codes, and file output."""

import hashlib
import json
import math
import os
import subprocess
import sys

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


# Malformed inputs: (argv, environment, error kind, exit code).  "{jp}"
# and "{ins}" stand for the jorgensen-pedersen and example-7.1 spec files,
# "{broken}" for a file holding "{bad", "{nx}" for a pair with n "x", and
# the other names for the spec files of MALFORMED_FILES below.
MALFORMED = [
    ("conv ft {jp} abc", {}, "bad-input", 2),
    ("q {jp} --depth 0", {}, "bad-input", 2),
    ("conv truncate {jp} --depth 5000", {}, "depth-limit", 3),
    ("q {jp} --depth 17 --grid-size 1", {"SPECTRAL_MAX_DEPTH": "16"}, "depth-limit", 3),
    ("q {jp} --depth 100000 --grid-size 1", {}, "depth-limit", 3),
    ("iz {ins}", {}, "bad-input", 2),
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
    ("mc {alphabet} --trials 0", {}, "bad-input", 2),
    ("mc {alphabet} --trials -1", {}, "bad-input", 2),
    ("mc {alphabet} --length 0", {}, "bad-input", 2),
    ("mc {alphabet} --length -1", {}, "bad-input", 2),
]

# Bad option values are refused up front with a message of their own,
# not with whatever a deeper layer (numpy, a pattern count) would say.
MALFORMED_DETAILS = {
    "conv ft {jp} 1/3 --tol nan": "tolerance must be positive",
    "q {jp} --tol inf": "tolerance must be positive",
    "q {jp} --budget-atoms 0": "budget_atoms must be at least 1",
    "q {jp} --grid-size 0": "grid must be nonempty",
    "mc {alphabet} --trials -1": "trials must be at least 1",
    "mc {alphabet} --length -1": "length must be at least 1",
}

# A huge enumeration tail must be refused before its letters are listed,
# atom lists are checked for positive weights summing to 1 and for string
# positions, and integers in specs are never truncated from other numbers.
# "alphabet" is a well-formed `mc` alphabet, for the bad option values.
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
}

# seconds one malformed case may take before it counts as a hang
MALFORMED_CASE_LIMIT_S = 10


@pytest.mark.parametrize("command,env,kind,code", MALFORMED,
                         ids=[c for c, _, _, _ in MALFORMED])
def test_malformed_input_gets_one_json_error(runner, jp_file, tmp_path,
                                             command, env, kind, code):
    files = {"jp": jp_file}
    for name, text in (
            ("ins", json.dumps(insertion_target_five_sixths().to_json())),
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
]


@pytest.mark.parametrize("command,digest", GOLDEN_STDOUT,
                         ids=[c for c, _ in GOLDEN_STDOUT])
def test_float_free_stdout_is_pinned(runner, jp_file, mixed_file, two_file, bern_file,
                                     command, digest):
    argv = command.format(jp=jp_file, mixed=mixed_file, two=two_file,
                          bern=bern_file).split()
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


@st.composite
def _record_arrays(draw):
    """1-D structured arrays of scalar fields, as `conv truncate` prints
    its atoms."""
    names = draw(st.lists(_TRICKY_TEXT.filter(len), min_size=1, max_size=3, unique=True))
    rows = draw(st.lists(st.tuples(*[_SCALAR_VALUES] * len(names)), max_size=4))
    out = np.empty(len(rows), [(name, object) for name in names])
    out[:] = rows
    return out


JSON_TREES = st.recursive(
    st.one_of(_SCALAR_VALUES, _UNIFORM, _with_empty(_UNIFORM), _ROW_ARRAYS,
              _record_arrays()), _containers,
    max_leaves=30)


def _listed(arr):
    """An array as a list: of its rows, or of its records as dicts."""
    if arr.dtype.names:
        return [dict(zip(arr.dtype.names, record)) for record in arr.tolist()]
    return arr.tolist()


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
def test_emitter_matches_json_dumps(tree):
    """Every array is compared as the list of its rows or records."""
    assert _dumps(tree) == json.dumps(tree, sort_keys=True, indent=2, default=_listed)


@pytest.mark.parametrize("array", [np.zeros((2, 2), dtype=bool), np.zeros((2, 2)),
                                   np.zeros(3, dtype=int), np.zeros((1, 2, 2), dtype=int),
                                   np.zeros((2, 2), [("x", object)]),
                                   np.zeros(2, [("x", int, (2,))])])
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
