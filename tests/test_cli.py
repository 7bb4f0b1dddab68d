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
from excov.gf import parse_field_spec

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


@pytest.mark.parametrize("spec", ["2", "7", "9", "25", "2^4", "3^5"])
def test_field_generator_has_full_order(capsys, spec):
    doc = run_json(capsys, ["field", "--field", spec])
    ctx = parse_field_spec(spec)
    g = ctx.from_index(doc["generator_index"])
    order = next((e for e in range(1, ctx.order) if g ** e == ctx.one()), None)
    assert order == doc["generator_order"] == ctx.order - 1


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


def _dp_eval_calls(capsys, monkeypatch, field, tmax):
    # (order, step) of each table the dp subcommand evaluates
    calls = []
    eval_sparse = excov._batch.BatchField.eval_sparse

    def counting(self, *args, **kwargs):
        calls.append((self.order, kwargs.get("step")))
        return eval_sparse(self, *args, **kwargs)

    monkeypatch.setattr(excov._batch.BatchField, "eval_sparse", counting)
    doc = run_json(
        capsys,
        ["dp", "--field", field, "--f", "poly:0,0,1", "--g", "poly:0,0,2", "--tmax", str(tmax)],
    )
    assert len(doc["results"]) == tmax
    return calls


def test_dp_subcommand_evaluates_each_map_once_per_t(capsys, monkeypatch):
    # both flags come from one table per map and t
    calls = _dp_eval_calls(capsys, monkeypatch, "5", 3)
    assert calls == [(5**t, t) for t in (1, 1, 2, 2, 3, 3)]  # step D: full tables


def test_dp_subcommand_evaluates_each_map_once_per_t_on_the_quotient(capsys, monkeypatch):
    # F_{3^t} for t >= 5: both maps on the orbit quotient of step 1
    calls = _dp_eval_calls(capsys, monkeypatch, "3", 7)
    steps = [1, 2, 3, 4] + [1] * 3  # step D, then step 1
    assert calls == [(3**t, step) for t, step in enumerate(steps, 1) for _ in range(2)]


def test_dp_of_prime_field_multiples_builds_no_log_table_past_the_prime_field(
    capsys, monkeypatch
):
    # x^8 against 2x^8 over F_3: once D >= 2 the log of 2 is found mod 3
    # (``BatchField.label``), so only F_3 itself builds exp and log
    built = []
    exp_log = excov._batch.BatchField._exp_log

    def recording(self):
        if self._tables is None:
            built.append(self.order)
        return exp_log(self)

    monkeypatch.setattr(excov._batch.BatchField, "_exp_log", recording)
    excov._batch._CACHE.clear()
    octic = ["--f", "poly:0,0,0,0,0,0,0,0,1", "--g", "poly:0,0,0,0,0,0,0,0,2"]
    doc = run_json(capsys, ["dp", "--field", "3", *octic, "--tmax", "9"])
    assert len(doc["results"]) == 9
    assert built == [3]


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


# -- golden stdout, one invocation per subcommand ----------------------------------
#
# Exact stdout bytes; a change that only restructures the code keeps them.

GOLDEN = [
    (
        'field --field 9',
        '{"field":{"k":2,"order":9,"p":3},"generator_index":4,"generator_order":8}\n',
    ),
    (
        'field --field 3^2',
        '{"field":{"k":2,"order":9,"p":3},"generator_index":4,"generator_order":8}\n',
    ),
    (
        'map --field 7 --map dickson:5,1',
        '{"degree":5,"den_indices":[1],"field":{"k":1,"order":7,"p":7},'
        '"num_indices":[0,5,0,2,0,1],"polynomial":true,"spec":"dickson:5,1"}\n',
    ),
    (
        'map --field 9 --map redei:5,4',
        '{"degree":5,"den_indices":[3,0,8,0,1],"field":{"k":2,"order":9,"p":3},'
        '"num_indices":[0,6,0,8,0,2],"polynomial":false,"spec":"redei:5,4"}\n',
    ),
    (
        # (3 + 4x + x^2) / (3 + x) reduces to x + 1
        'map --field 9 --map rat:3,4,1/3,1',
        '{"degree":1,"den_indices":[1],"field":{"k":2,"order":9,"p":3},'
        '"num_indices":[1,1],"polynomial":true,"spec":"rat:3,4,1/3,1"}\n',
    ),
    (
        'map --field 3^4 --map rat:1,2,0,1/5,0,1',
        '{"degree":3,"den_indices":[5,0,1],"field":{"k":4,"order":81,"p":3},'
        '"num_indices":[1,2,0,1],"polynomial":false,"spec":"rat:1,2,0,1/5,0,1"}\n',
    ),
    (
        'scan --field 3^1 --map dickson:5,1 --tmax 6',
        '{"base_order":3,"field":{"k":1,"order":3,"p":3},"fit_depth":3,'
        '"fitted":{"modulus":2,"residues":[1]},"map":"dickson:5,1",'
        '"records":[{"bijective":true,"period":1,"surjective":true,"t":1,'
        '"value_counts":{"1":4}},{"bijective":false,"period":null,"surjective":false,'
        '"t":2,"value_counts":{"0":4,"1":4,"3":2}},{"bijective":true,"period":6,'
        '"surjective":true,"t":3,"value_counts":{"1":28}},{"bijective":false,'
        '"period":null,"surjective":false,"t":4,"value_counts":{"0":32,"1":41,"3":2,'
        '"5":7}},{"bijective":true,"period":330,"surjective":true,"t":5,'
        '"value_counts":{"1":244}},{"bijective":false,"period":null,'
        '"surjective":false,"t":6,"value_counts":{"0":292,"1":364,"3":2,"5":72}}],'
        '"t_max":6,"t_reached":6}\n',
    ),
    (
        'frobset --mod 12 --residues 2',
        '{"modulus":12,"residues":[2,10]}\n',
    ),
    (
        'dp --field 5 --f poly:0,0,1 --g poly:0,0,2 --tmax 2',
        '{"f":"poly:0,0,1","field":{"k":1,"order":5,"p":5},"g":"poly:0,0,2",'
        '"results":[{"multiset_equal":false,"range_equal":false,"t":1},'
        '{"multiset_equal":true,"range_equal":true,"t":2}]}\n',
    ),
    (
        'group --model cyclic:5,3',
        '{"analysis":{"doubly_transitive":false,"primitive":true,'
        '"self_normalizing":false,"transitive":true},"coset_period":4,"degree":5,'
        '"group_order":5,"mode":"exceptional","model":"cyclic:5,3",'
        '"set":{"modulus":4,"residues":[1,2,3]}}\n',
    ),
    (
        'group --model dickson:5,3',
        '{"analysis":{"doubly_transitive":false,"primitive":true,'
        '"self_normalizing":true,"transitive":true},"coset_period":2,"degree":5,'
        '"group_order":10,"mode":"exceptional","model":"dickson:5,3",'
        '"set":{"modulus":2,"residues":[1]}}\n',
    ),
    (
        'nielsen --dickson 5',
        '{"entries":["(1 5)(2 4)","(2 5)(3 4)","(1 5 4 3 2)"],"family":"dickson",'
        '"genus":0,"inner_orbit_size":3,"n":5}\n',
    ),
    (
        'nielsen --cyclic 5',
        '{"entries":["(1 2 3 4 5)","(1 5 4 3 2)"],"family":"cyclic","genus":0,'
        '"inner_orbit_size":2,"n":5}\n',
    ),
    (
        'nielsen --modular 3,1',
        '{"absolute_classes":1,"family":"modular","inner_braid_orbits":6,'
        '"inner_classes":1944,"k":1,"p":3}\n',
    ),
    (
        'nielsen --modular 11,0',
        '{"absolute_classes":1,"family":"modular","inner_braid_orbits":10,'
        '"inner_classes":6600,"k":0,"p":11}\n',
    ),
    (
        'nielsen --modular 13,0',
        '{"absolute_classes":1,"family":"modular","inner_braid_orbits":12,'
        '"inner_classes":13104,"k":0,"p":13}\n',
    ),
    (
        'oit --curve ogg --p 5 --lmax 30',
        '{"all_match":true,"ell_max":30,"notices":["skip ell=2: bad reduction",'
        '"skip ell=3: bad reduction","skip ell=5: equals p"],"p":5,'
        '"rows":[{"a_ell":0,"cells":[{"bijective":true,"match":true,"predicted":true,'
        '"t":1}],"disc_nonresidue":true,"ell":7},{"a_ell":4,'
        '"cells":[{"bijective":true,"match":true,"predicted":true,"t":1}],'
        '"disc_nonresidue":true,"ell":11},{"a_ell":-2,"cells":[{"bijective":true,'
        '"match":true,"predicted":true,"t":1}],"disc_nonresidue":true,"ell":13},'
        '{"a_ell":2,"cells":[{"bijective":false,"match":true,"predicted":false,'
        '"t":1}],"disc_nonresidue":false,"ell":17},{"a_ell":-4,'
        '"cells":[{"bijective":true,"match":true,"predicted":true,"t":1}],'
        '"disc_nonresidue":false,"ell":19},{"a_ell":-8,"cells":[{"bijective":true,'
        '"match":true,"predicted":true,"t":1}],"disc_nonresidue":true,"ell":23},'
        '{"a_ell":6,"cells":[{"bijective":true,"match":true,"predicted":true,"t":1}],'
        '"disc_nonresidue":false,"ell":29}],"t_max":1}\n',
    ),
    (
        'pencil --p 11 --f poly:1,3,1',
        '{"coeffs":[1,3,1],"deviation":1,"e_values":[-1,-1,-1,-1,10,-1,-1,-1,-1,-1,'
        '-1],"identity_ok":true,"k_f_estimate":1,"n_f":10,"p":11,"w":110}\n',
    ),
    (
        'selftest --only reflection',
        '{"criteria":[{"detail":"braid orbit and absolute class counts for (3,0), (5,'
        '0), (7,0), (3,1); 8 comparisons","name":"reflection-classes","ok":true}],'
        '"ok":true}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run_cli(capsys, argv.split())
    assert code == 0, err
    assert out == expected


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


def test_negative_fit_depth_exits_2(capsys):
    argv = ["scan", "--field", "3", "--map", "cyclic:5", "--tmax", "4"]
    code, out, err = run_cli(capsys, argv + ["--dmax", "-3"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"message": "d_max must be >= 0", "type": "ValidationError"}
    # a depth of 0 is no fit, not an error
    doc = run_json(capsys, argv + ["--dmax", "0"])
    assert doc["fit_depth"] == 0 and doc["fitted"] == "no fit"


@pytest.mark.parametrize("tmax", ["0", "-1"])
def test_dp_without_any_t_exits_2(capsys, tmax):
    argv = ["dp", "--field", "3", "--f", "cyclic:2", "--g", "cyclic:2", "--tmax", tmax]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"message": "t_max must be >= 1", "type": "ValidationError"}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["frobset", "--mod", "12", "--residues", "1,x"], "--residues"),
        (["group", "--model", "cyclic:5"], "model spec 'cyclic:5'"),
        (["group", "--model", "cyclic:5,3,2"], "model spec 'cyclic:5,3,2'"),
        (["group", "--model", "dickson:5,q"], "model spec 'dickson:5,q'"),
        (["nielsen", "--modular", "3"], "--modular '3'"),
        (["nielsen", "--modular", "3,k"], "--modular '3,k'"),
        (["oit", "--curve", "[0,0,0,1]", "--p", "3", "--lmax", "5"], "curve spec '[0,0,0,1]'"),
        (["oit", "--curve", "[0,0,0,1,a]", "--p", "3", "--lmax", "5"], "curve spec '[0,0,0,1,a]'"),
    ],
)
def test_bad_integer_lists_exit_2_naming_their_flag_or_spec(capsys, argv, named):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and error["message"].startswith(named)


def test_nielsen_without_selector_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["nielsen"])
    assert code == 2


def test_cap_exceeded_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "10")
    code, _, err = run_cli(capsys, ["scan", "--field", "13", "--map", "cyclic:3"])
    assert code == 3
    assert json.loads(err)["error"]["type"] == "CapExceededError"


def test_oversized_field_power_exits_3_with_short_error(capsys):
    code, out, err = run_cli(capsys, ["field", "--field", "2^20000"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "CapExceededError"
    assert len(err) < 120


def test_overlong_field_exponent_exits_3(capsys):
    # 5000 digits are past Python's int() limit; the length alone decides
    code, out, err = run_cli(capsys, ["field", "--field", "2^" + "1" * 5000])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "CapExceededError"
    assert len(err) < 120


def test_overlong_plain_order_exits_3_and_messages_stay_short(capsys):
    code, out, err = run_cli(capsys, ["field", "--field", "7" * 5001])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "CapExceededError"
    assert len(err) < 120
    code, _, err = run_cli(capsys, ["field", "--field", "7" * 5000 + "x"])
    assert code == 2
    assert len(err) < 160


def test_signed_overlong_field_parts_exit_3(capsys):
    for spec in ("2^+" + "1" * 5000, "+" + "7" * 5001):
        code, out, err = run_cli(capsys, ["field", "--field", spec])
        assert code == 3, spec[:8]
        assert out == ""
        assert json.loads(err)["error"]["type"] == "CapExceededError"
        assert len(err) < 120


def test_plus_signed_field_parts_parse_as_unsigned(capsys):
    for signed, plain in (("2^+5", "2^5"), ("+9", "9"), ("+0009", "9")):
        assert run_json(capsys, ["field", "--field", signed]) == run_json(
            capsys, ["field", "--field", plain]
        )


def test_minus_signed_field_parts_exit_2(capsys):
    for spec in ("2^-" + "1" * 5000, "-" + "7" * 5001, "2^-5", "-9", "2^++5", "+"):
        code, out, err = run_cli(capsys, ["field", "--field", spec])
        assert code == 2, spec[:8]
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValidationError"
        assert len(err) < 160


def test_pencil_cap_is_the_field_cap_on_p_squared(capsys):
    # 4093^2 <= 2^24 < 4099^2, consecutive primes
    doc = run_json(capsys, ["pencil", "--p", "4093", "--f", "poly:0,0,1"])
    assert doc["w"] == doc["p"] * doc["n_f"]
    code, out, err = run_cli(capsys, ["pencil", "--p", "4099", "--f", "poly:0,0,1"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "CapExceededError"


def test_oit_checks_the_map_degree_cap_before_primality(capsys, monkeypatch):
    monkeypatch.setenv("EXCOV_CAP", "100")
    code, out, err = run_cli(capsys, ["oit", "--curve", "ogg", "--p", "15", "--lmax", "20"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["message"] == "map degree of size 225 exceeds cap 100"


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_main_builds_one_parser_and_answers_as_a_fresh_one(capsys, monkeypatch):
    # errors, --help and output read sys.stdout and sys.stderr as they write,
    # so the shared parser answers each call as a new one would
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        outs = [run_cli(capsys, ["field", "--field", "3^2"]) for _ in range(2)]
        assert outs[0] == outs[1] and outs[0][0] == 0
        for argv in (["field"], ["frobnicate"], ["scan", "--help"], ["--help"]):
            with pytest.raises(SystemExit) as got:
                cli.main(argv)
            printed = capsys.readouterr()
            with pytest.raises(SystemExit) as want:
                build().parse_args(argv)
            assert got.value.code == want.value.code, argv
            assert printed == capsys.readouterr(), argv
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


# -- installed console script -------------------------------------------------------


def run_module(*argv):
    """``python -m excov.cli`` in a child that imports the excov under test."""
    path = [str(Path(excov.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "excov.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_console_script_end_to_end():
    proc = run_module("frobset", "--mod", "12", "--residues", "2")
    assert proc.returncode == 0
    assert proc.stdout == '{"modulus":12,"residues":[2,10]}\n'


def test_console_script_error_code():
    proc = run_module("field", "--field", "0")
    assert proc.returncode == 2


# each of these once ran out of memory or trial-divided for minutes
@pytest.mark.parametrize(
    "argv",
    [
        "group --model cyclic:20011,3",
        "nielsen --cyclic 30011",
        "nielsen --dickson 30011",
        "oit --curve ogg --p 1000000000000000003 --lmax 5",
        "map --field 3 --map cyclic:1000000000000",
    ],
)
def test_outsized_structural_inputs_exit_3_without_traceback(argv):
    proc = run_module(*argv.split())
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "CapExceededError"


def test_every_schema_file_is_a_valid_schema():
    validator = jsonschema.validators.validator_for({"$schema": "https://json-schema.org/draft/2020-12/schema"})
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        with open(path) as fh:
            schema = json.load(fh)
        validator.check_schema(schema)
