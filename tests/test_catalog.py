"""Bundled example runs: payload shapes, expectation matching, exit
codes, and deterministic file output through `spectral example`."""

import json

import pytest
from click.testing import CliRunner

from spectralconv.catalog import EXIT_MATCH, example_ids, run_example
from spectralconv.cli import main
from spectralconv.spectrality import VerdictBudget


def _example_run(*argv):
    result = CliRunner().invoke(main, list(argv))
    assert result.exit_code == EXIT_MATCH, result.output
    return result.stdout


def test_registered_ids_are_stable():
    assert example_ids() == ("example-1.7", "example-7.1", "example-7.2",
                             "jorgensen-pedersen", "theorem-1.6-grid")


def test_unknown_id_is_rejected():
    with pytest.raises(KeyError):
        run_example("no-such-example")


def test_every_example_matches_its_expectation():
    for example_id in example_ids():
        payload, code = run_example(example_id, VerdictBudget(run_q=False))
        assert code == EXIT_MATCH
        assert payload["exit_code"] == EXIT_MATCH
        assert payload["example"] == example_id
        if "cells" in payload:
            assert all(cell["match"] for cell in payload["cells"])
        else:
            assert payload["match"] is True


def test_quarter_example_payload():
    payload, code = run_example("jorgensen-pedersen")
    assert code == EXIT_MATCH
    assert sorted(payload) == ["example", "exit_code", "expected", "match",
                               "q_report", "report", "spec"]
    assert payload["report"]["verdict"] == "SpectralCertified"
    assert payload["report"]["reason"] == "tail-difference-gcd"
    assert payload["q_report"]["min_q"] >= 0.99


def test_mixed_word_example_payload():
    payload, code = run_example("example-1.7")
    assert code == EXIT_MATCH
    assert payload["report"]["verdict"] == "NotSpectralCertified"
    assert payload["report"]["reason"] == "special-family-classifier"
    # the Q grid cannot rescue this one: its minimum collapses
    assert payload["q_report"]["min_q"] == pytest.approx(0.00013546548778595259)
    assert payload["q_report"]["min_q"] < 0.5


def test_insertion_example_payload():
    payload, code = run_example("example-7.1")
    assert code == EXIT_MATCH
    assert sorted(payload) == ["example", "exit_code", "expected", "match",
                               "report", "spec", "window"]
    assert payload["window"] == ["19/30", "1"]
    assert payload["report"]["verdict"] == "SpectralCertified"
    assert payload["report"]["reason"] == "window-disjoint-translates"
    details = payload["report"]["details"]
    assert details["depth"] == 6
    cert = details["certificate"]
    assert cert["ok"] is True
    assert cert["mass_lower"] == "1/3"
    assert cert["blocking"] == []


def test_second_insertion_example_payload():
    payload, code = run_example("example-7.2")
    assert code == EXIT_MATCH
    assert payload["report"]["reason"] == "window-disjoint-translates"


def test_grid_example_payload():
    payload, code = run_example("theorem-1.6-grid")
    assert code == EXIT_MATCH
    assert sorted(payload) == ["cells", "example", "exit_code", "match"]
    cells = payload["cells"]
    assert len(cells) == 8
    words = {cell["word"] for cell in cells}
    assert words == {"constant-2", "one-then-2", "alternating", "enumeration"}
    for cell in cells:
        assert cell["match"]
        assert cell["verdict"] == cell["expected"]
        wants_not = cell["stretch"] == 1 and cell["word"] == "one-then-2"
        assert (cell["verdict"] == "NotSpectralCertified") == wants_not


def test_json_output_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    stdout = _example_run("--json-out", str(a), "example", "example-7.1")
    _example_run("--json-out", str(b), "example", "example-7.1")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == stdout
    assert json.loads(a.read_text())["example"] == "example-7.1"


def test_csv_output_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _example_run("--csv-out", str(a), "example", "jorgensen-pedersen")
    _example_run("--csv-out", str(b), "example", "jorgensen-pedersen")
    assert a.read_bytes() == b.read_bytes()
    head = a.read_text().splitlines()[0]
    assert head == "xi,q_value,radius,depth"


def test_budget_can_skip_the_grid_run():
    payload, code = run_example("jorgensen-pedersen", VerdictBudget(run_q=False))
    assert code == EXIT_MATCH
    assert payload.get("q_report") is None


def test_example_command_writes_requested_files(tmp_path):
    out_json = tmp_path / "payload.json"
    out_csv = tmp_path / "grid.csv"
    _example_run("--json-out", str(out_json), "--csv-out", str(out_csv),
                 "example", "jorgensen-pedersen")
    assert json.loads(out_json.read_text())["example"] == "jorgensen-pedersen"
    assert out_csv.read_text().startswith("xi,q_value,radius,depth")


def test_example_without_a_grid_writes_no_csv(tmp_path):
    out_csv = tmp_path / "grid.csv"
    _example_run("--csv-out", str(out_csv), "example", "jorgensen-pedersen",
                 "--no-q")
    assert not out_csv.exists()
