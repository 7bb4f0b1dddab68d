"""CLI surface: schema-valid JSON, byte determinism, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import excov
from excov import cli

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def schema_for(name: str) -> dict:
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, schema_for(argv[0]))
    return doc


# -- happy paths, one per subcommand -------------------------------------------


def test_field_subcommand(capsys):
    doc = run_json(capsys, ["field", "--field", "3^2"])
    assert doc["field"] == {"p": 3, "k": 2, "order": 9}


def test_field_accepts_plain_prime_power(capsys):
    doc = run_json(capsys, ["field", "--field", "27"])
    assert doc["field"] == {"p": 3, "k": 3, "order": 27}


def test_map_subcommand(capsys):
    doc = run_json(capsys, ["map", "--field", "7", "--map", "dickson:5,1"])
    assert doc["degree"] == 5
    assert doc["polynomial"] is True
    assert len(doc["num_indices"]) == 6


def test_scan_subcommand_matches_gcd_rule(capsys):
    doc = run_json(
        capsys, ["scan", "--field", "3^1", "--map", "dickson:5,1", "--tmax", "12"]
    )
    assert doc["fitted"] == {"modulus": 2, "residues": [1]}
    assert doc["t_reached"] == 12


def test_frobset_subcommand_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, ["frobset", "--mod", "12", "--residues", "2"])
    assert code == 0
    assert out == '{"modulus":12,"residues":[2,10]}\n'
    jsonschema.validate(json.loads(out), schema_for("frobset"))


def test_dp_subcommand(capsys):
    doc = run_json(
        capsys,
        ["dp", "--field", "5", "--f", "poly:0,0,1", "--g", "poly:0,0,2", "--tmax", "2"],
    )
    assert [r["range_equal"] for r in doc["results"]] == [False, True]


def test_group_subcommand(capsys):
    doc = run_json(capsys, ["group", "--model", "dickson:5,3"])
    assert doc["set"] == {"modulus": 2, "residues": [1]}
    assert doc["degree"] == 5
    assert doc["analysis"]["transitive"] is True


def test_group_pr_mode(capsys):
    doc = run_json(
        capsys, ["group", "--model", "cyclic:5,3", "--mode", "pr-exceptional"]
    )
    assert doc["mode"] == "pr-exceptional"


def test_nielsen_dickson(capsys):
    doc = run_json(capsys, ["nielsen", "--dickson", "5"])
    assert doc["genus"] == 0
    assert len(doc["entries"]) == 3


def test_nielsen_modular(capsys):
    doc = run_json(capsys, ["nielsen", "--modular", "3,0"])
    assert doc["inner_braid_orbits"] == 2
    assert doc["absolute_classes"] == 1


def test_oit_subcommand(capsys):
    doc = run_json(
        capsys,
        ["oit", "--curve", "ogg", "--p", "5", "--lmax", "20", "--tmax", "1", "--json"],
    )
    assert doc["all_match"] is True
    assert [row["ell"] for row in doc["rows"]] == [7, 11, 13, 17, 19]


def test_oit_custom_curve(capsys):
    doc = run_json(
        capsys,
        ["oit", "--curve", "[0,-1,0,1,0]", "--p", "5", "--lmax", "15", "--tmax", "1"],
    )
    assert doc["rows"]


def test_pencil_subcommand(capsys):
    doc = run_json(capsys, ["pencil", "--p", "31", "--f", "poly:0,0,0,1", "--json"])
    assert doc["identity_ok"] is True
    assert doc["w"] == 31 * doc["n_f"]


def test_selftest_filtered(capsys):
    doc = run_json(capsys, ["selftest", "--only", "reflection"])
    assert doc["ok"] is True
    assert [c["name"] for c in doc["criteria"]] == ["reflection-classes"]


# -- output contracts ------------------------------------------------------------


def test_byte_identical_reruns(capsys):
    argv = ["scan", "--field", "5", "--map", "cyclic:3", "--tmax", "6"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    assert first.endswith("\n") and first.count("\n") == 1


def test_tsv_output(capsys):
    code, out, _ = run_cli(capsys, ["frobset", "--mod", "12", "--residues", "2", "--tsv"])
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().split("\n"))
    assert rows["modulus"] == "12"
    assert rows["residues[0]"] == "2"
    assert rows["residues[1]"] == "10"


def test_tsv_nested_paths(capsys):
    code, out, _ = run_cli(
        capsys, ["scan", "--field", "3", "--map", "cyclic:2", "--tmax", "2", "--tsv"]
    )
    assert code == 0
    paths = [line.split("\t")[0] for line in out.strip().split("\n")]
    assert "records[0].bijective" in paths
    assert "field.order" in paths


# -- exit codes --------------------------------------------------------------------


def test_bad_map_spec_exits_2(capsys):
    code, out, err = run_cli(capsys, ["scan", "--field", "3", "--map", "dickson:5"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_bad_field_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, ["field", "--field", "12"])
    assert code == 2
    assert "prime power" in json.loads(err)["error"]["message"]


def test_oit_non_prime_p_exits_2(capsys):
    code, out, err = run_cli(capsys, ["oit", "--curve", "ogg", "--p", "9", "--lmax", "20"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValidationError"


def test_nielsen_without_selector_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["nielsen"])
    assert code == 2


def test_cap_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "10")
    code, _, err = run_cli(capsys, ["scan", "--field", "13", "--map", "cyclic:3"])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "CapExceededError"


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# -- installed console script -------------------------------------------------------


def run_module(*argv):
    """``python -m excov.cli`` in a child that imports the excov under test."""
    path = [str(Path(excov.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "excov.cli", *argv], capture_output=True, text=True, env=env
    )


def test_console_script_end_to_end():
    proc = run_module("frobset", "--mod", "12", "--residues", "2")
    assert proc.returncode == 0
    assert proc.stdout == '{"modulus":12,"residues":[2,10]}\n'


def test_console_script_error_code():
    proc = run_module("field", "--field", "0")
    assert proc.returncode == 2


def test_every_schema_file_is_a_valid_schema():
    validator = jsonschema.validators.validator_for({"$schema": "https://json-schema.org/draft/2020-12/schema"})
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        with open(path) as fh:
            schema = json.load(fh)
        validator.check_schema(schema)
