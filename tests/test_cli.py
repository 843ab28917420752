"""Command line surface: JSON payloads, exit codes, and file output."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from spectralconv.catalog import mixed_word_spec, scale4_spec
import spectralconv
from spectralconv.cli import main, validate_spec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def jp_file(tmp_path):
    path = tmp_path / "jp.json"
    path.write_text(json.dumps(scale4_spec().to_json()))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(mixed_word_spec().to_json()))
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


def test_q_command_threads_option(runner, jp_file):
    a = runner.invoke(main, ["q", jp_file, "--depth", "6",
                             "--grid-size", "8"])
    b = runner.invoke(main, ["--threads", "2", "q", jp_file, "--depth", "6",
                             "--grid-size", "8"])
    assert a.exit_code == b.exit_code == 0
    assert _payload(a) == _payload(b)


def test_iz_command_witness(runner, tmp_path):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps([{"x": "0", "w": "1/2"},
                                {"x": "1", "w": "1/2"}]))
    result = runner.invoke(main, ["iz", str(path)])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["kind"] == "nonempty-witness"
    assert payload["witness"] == "1/2"


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


# SHA-256 of stdout for commands whose output holds no float, pinned so a
# refactor of the exact layers cannot change a byte.  "{jp}" and "{mixed}"
# stand for the catalog's jorgensen-pedersen and example-1.7 spec files.
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
]


@pytest.mark.parametrize("command,digest", GOLDEN_STDOUT,
                         ids=[c for c, _ in GOLDEN_STDOUT])
def test_float_free_stdout_is_pinned(runner, jp_file, mixed_file, command,
                                     digest):
    argv = command.format(jp=jp_file, mixed=mixed_file).split()
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


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
