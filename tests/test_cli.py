"""Command-line interface tests: exact text output, JSON round trips,
exit codes, and byte determinism."""

import json
import os
import subprocess
import sys

import pytest

import vacalc
from vacalc.cli import main, run
from vacalc.localfn import LocalFn


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_canon_output(capsys):
    code, out = invoke(capsys, "canon", "--arity", "2", "(z1-z2)^-1")
    assert code == 0
    assert out == "-1 * (z2-z1)^-1\n"


def test_canon_json_round_trip(capsys):
    code, out = invoke(capsys, "canon", "--arity", "3", "--json",
                       "(z3-z1)^-1*(z3-z2)^-1")
    assert code == 0
    f = LocalFn.from_obj(json.loads(out))
    assert f == LocalFn.from_text("(z3-z1)^-1*(z3-z2)^-1", 3)


def test_dims_output(capsys):
    code, out = invoke(capsys, "dims", "--preset", "virasoro", "--c", "1/2",
                       "--max-weight", "6")
    assert code == 0
    assert out == "1 0 1 1 2 2 4\n"


def test_radical_negative_central_charge(capsys):
    code, out = invoke(capsys, "radical", "--preset", "virasoro",
                       "--c", "-22/5", "--weight", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 1"
    assert "L(-1)L(-1)1" in lines[1] and "-3/5 * L(-3)1" in lines[1]


def test_npoint_and_bracket(capsys):
    code, out = invoke(capsys, "npoint", "--preset", "heisenberg", "--gens", "a,a")
    assert (code, out) == (0, "(z2-z1)^-2\n")
    code, out = invoke(capsys, "bracket", "--preset", "virasoro", "--c", "1",
                       "--a", "L", "--b", "L", "--n", "1")
    assert (code, out) == (0, "2 * L(-1)1\n")


def test_insert_and_kernels(capsys):
    code, out = invoke(capsys, "insert", "--arity", "2", "--m", "1", "--p", "2",
                       "(z2-z1)^-1")
    assert (code, out) == (0, "-1 * [(z2-z1)^-2] (x) [t1]\n")
    code, out = invoke(capsys, "kernels", "--kind", "associative",
                       "--m-max", "3", "--n-max", "3")
    assert code == 0
    assert out.strip().endswith("expansion orders agree: yes")


def test_filtration_and_connective(capsys):
    code, out = invoke(capsys, "filtration", "--arity", "3", "--subset", "1,3",
                       "(z2-z1)^-1*(z3-z2)^-1")
    assert (code, out) == (0, "level 0\n")
    code, out = invoke(capsys, "filtration", "--arity", "2", "--subset", "1,2",
                       "--basis", "--level", "1", "--grading", "1",
                       "--pole-budget", "1")
    assert (code, out) == (0, "(z2-z1)^-1\n")
    code, out = invoke(capsys, "connective", "--arity", "2", "--k", "0",
                       "--sorts", "0,1,1", "(z2-z1)^-2")
    assert (code, out) == (0, "true\n")


def test_verify_and_lattice_and_oracle(capsys):
    code, out = invoke(capsys, "verify-cooperad", "--samples", "6", "--order", "2")
    assert code == 0 and out.startswith("checks ")
    code, out = invoke(capsys, "lattice-check", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["failures"] == 0
    code, out = invoke(capsys, "oracle-dims", "--kind", "partitions",
                       "--max-weight", "10")
    assert (code, out) == (0, "1 1 2 3 5 7 11 15 22 30 42\n")


def test_ope_json_schema(capsys):
    code, out = invoke(capsys, "ope", "--preset", "virasoro", "--c", "1/2",
                       "--a", "L", "--b", "L", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 3
    assert [t["n"] for t in obj["singular"]] == [0, 1, 3]


def test_presentation_file(tmp_path, capsys):
    doc = {
        "generators": [{"name": "b", "weight": 1}],
        "relations": [
            {"a": "b", "b": "b", "n": 1, "result": [{"coeff": "2", "word": []}]}
        ],
    }
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(capsys, "dims", "--file", str(path), "--max-weight", "4")
    assert (code, out) == (0, "1 1 2 3 5\n")


def test_domain_error_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["vacalc", "canon", "--arity", "1", "z1^-1"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1
    assert "IllegalPole" in capsys.readouterr().err


def _vacalc_process(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vacalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "vacalc", *argv],
                          capture_output=True, text=True, env=env)


# Each case is (argv, document).  PRES in argv names a file holding the
# document: a dict is written as JSON, a str as it is, and None writes no file.
_BAD_INPUTS = [
    (("dims", "--preset", "virasoro", "--c", "abc", "--max-weight", "2"), None),
    (("dims", "--preset", "virasoro", "--c", "1/0", "--max-weight", "2"), None),
    (("oracle-dims", "--kind", "theta_over_eta", "--norm", "3", "--max-weight", "4"), None),
    (("oracle-dims", "--kind", "partitions", "--max-weight", "-1"), None),
    # a relation result that uses an unknown generator
    (("dims", "--file", "PRES", "--max-weight", "2"), {
        "generators": [{"name": "b", "weight": 1}],
        "relations": [
            {"a": "b", "b": "b", "n": 0, "result": [{"coeff": "1", "word": [["q", -2]]}]}
        ],
    }),
    # integer fields are not truncated or parsed loosely
    (("dims", "--file", "PRES", "--max-weight", "3"), {"preset": "heisenberg", "rank": 1.5}),
    (("dims", "--file", "PRES", "--max-weight", "3"), {"preset": "lattice_rank1", "norm": "two"}),
    # Heisenberg form entries must be rationals
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"preset": "heisenberg", "rank": 1, "form": [["x"]]}),
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"preset": "heisenberg", "rank": 1, "form": [["1/0"]]}),
    # a file that is not JSON, and a file that does not exist
    (("dims", "--file", "PRES", "--max-weight", "2"), "{not json"),
    (("dims", "--file", "PRES", "--max-weight", "2"), None),
]


@pytest.mark.parametrize(
    "argv, document", _BAD_INPUTS, ids=[f"argv{i}" for i in range(len(_BAD_INPUTS))]
)
def test_bad_input_is_a_schema_error(tmp_path, argv, document):
    path = tmp_path / "pres.json"
    if isinstance(document, dict):
        path.write_text(json.dumps(document))
    elif document is not None:
        path.write_text(document)
    proc = _vacalc_process(*(str(path) if a == "PRES" else a for a in argv))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: SchemaError: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["canon"])  # missing required pieces
    assert exc.value.code == 2


def test_byte_determinism(capsys):
    args = ("verify-cooperad", "--samples", "8", "--order", "3", "--json")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second
