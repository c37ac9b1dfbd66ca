"""Command-line interface tests: exact text output, JSON round trips,
exit codes, and byte determinism."""

import ast
import contextlib
import gc
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from math import comb

import pytest

import vacalc
from vacalc import cli
from vacalc.cli import main, run
from vacalc.errors import SchemaError
from vacalc.localfn import LocalFn

from test_vacore import _SL2_FORWARD, _doc, _rel


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


_OUTPUT_BUILDERS = [
    ("cooperad.TensorElement", "__str__", "to_json",
     ("insert", "--arity", "2", "--m", "1", "--p", "2", "(z2-z1)^-1")),
    ("vacore.VAElement", "__str__", "to_obj",
     ("radical", "--preset", "virasoro", "--c", "-22/5", "--weight", "4")),
    ("localfn.LocalFn", "format", "to_json", ("canon", "--arity", "2", "-z1*(z2-z1)^-1")),
    ("localfn.LocalFn", "format", "to_json",
     ("npoint", "--preset", "heisenberg", "--gens", "a,a,a,a")),
    # the human report is a closure of the command, so only the JSON writer
    # can be caught being built for the other mode
    ("cli", None, "_report_json", ("verify-cooperad", "--samples", "4", "--order", "2")),
]


@pytest.mark.parametrize("owner, text_builder, json_builder, argv", _OUTPUT_BUILDERS,
                         ids=[f"{case[0]}-argv{i}" for i, case in enumerate(_OUTPUT_BUILDERS)])
def test_each_output_mode_builds_only_its_own_text(monkeypatch, capsys, owner, text_builder,
                                                   json_builder, argv):
    target = vacalc
    for part in owner.split("."):
        target = getattr(target, part)

    def unused(*args):
        raise AssertionError("built for the other output mode")

    want = invoke(capsys, *argv)
    want_json = invoke(capsys, *argv, "--json")
    if text_builder is not None:
        with monkeypatch.context() as m:
            m.setattr(target, text_builder, unused)
            assert invoke(capsys, *argv, "--json") == want_json
    monkeypatch.setattr(target, json_builder, unused)
    assert invoke(capsys, *argv) == want


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


def test_norm_is_a_flag_of_theta_over_eta_alone(capsys):
    argv = ("oracle-dims", "--kind", "theta_over_eta", "--max-weight", "6")
    assert invoke(capsys, *argv) == invoke(capsys, *argv, "--norm", "2")
    with pytest.raises(SchemaError, match="--kind partitions takes no --norm"):
        run(["oracle-dims", "--kind", "partitions", "--norm", "2", "--max-weight", "4"])


def test_ope_json_schema(capsys):
    code, out = invoke(capsys, "ope", "--preset", "virasoro", "--c", "1/2",
                       "--a", "L", "--b", "L", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] == 3
    assert [t["n"] for t in obj["singular"]] == [0, 1, 3]


def test_presentation_file(tmp_path, capsys):
    doc = _doc("b", [_rel("b", "b", 1, ("2", []))])
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


def _vacalc_process(*argv, stdout=subprocess.PIPE, timeout=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vacalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "vacalc", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=timeout)


# affine sl2 at level 1, and two tables that fail the Jacobi identity
_SL2_DOC = _doc("efh", _SL2_FORWARD)
_SL2_STRUCTURE_DOC = _doc("efh", [*_SL2_FORWARD[:2], _rel("e", "h", 0, ("-3", [["e", -1]])),
                                  *_SL2_FORWARD[3:]])  # [e,h]_0 = -3e
_SL2_CENTRAL_DOC = _doc("efh", [*_SL2_FORWARD[:4], _rel("h", "h", 1, ("3", []))])  # [h,h]_1 = 3
# a Heisenberg preset with a degenerate, fractional form
_HEISENBERG_FORM_DOC = {"preset": "heisenberg", "rank": 2, "form": [["1/2", "1"], ["1", "2"]]}
# a relation declared in reverse generator order, completed by skew symmetry
_REVERSED_DOC = _doc("ab", [_rel("b", "a", 1, ("1", []))])
# a diagonal row that breaks skew symmetry with itself
_DIAGONAL_DOC = _doc("a", [_rel("a", "a", 0, ("1", [["a", -1]])), _rel("a", "a", 1, ("1", []))])
# only connectivity 0 is accepted
_CONNECTIVITY1_DOC = {**_doc("a", [_rel("a", "a", 1, ("1", []))]), "connectivity": 1}
# a file name in an argv of the output tables below names its document
_DOCS = {"sl2.json": _SL2_DOC, "heisenberg_form.json": _HEISENBERG_FORM_DOC,
         "reversed.json": _REVERSED_DOC}


# Each case is (argv, document).  PRES in argv names a file holding the
# document: a dict is written as JSON, a str as it is, and None writes no file.
_BAD_INPUTS = [
    (("dims", "--preset", "virasoro", "--c", "abc", "--max-weight", "2"), None),
    (("dims", "--preset", "virasoro", "--c", "1/0", "--max-weight", "2"), None),
    (("oracle-dims", "--kind", "theta_over_eta", "--norm", "3", "--max-weight", "4"), None),
    (("oracle-dims", "--kind", "partitions", "--max-weight", "-1"), None),
    # a relation result that uses an unknown generator
    (("dims", "--file", "PRES", "--max-weight", "2"),
     _doc("b", [_rel("b", "b", 0, ("1", [["q", -2]]))])),
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
    # sections of the wrong JSON type
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"generators": [{"name": "b", "weight": 1}], "central": [1]}),
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"generators": [{"name": "b", "weight": 1}], "relations": 5}),
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"generators": [{"name": "b", "weight": 1}],
      "relations": [{"a": "b", "b": "b", "n": 0, "result": [1]}]}),
    (("dims", "--file", "PRES", "--max-weight", "2"),
     {"generators": [{"name": ["x"], "weight": 1}]}),
    # comma-separated integer lists
    (("filtration", "--arity", "2", "--subset", "1,a", "(z2-z1)^-1"), None),
    (("connective", "--arity", "2", "--sorts", "0,x,1", "(z2-z1)^-1"), None),
    # negative sizes
    (("dims", "--preset", "virasoro", "--c", "1/2", "--max-weight", "-1"), None),
    (("radical", "--preset", "virasoro", "--c", "1/2", "--weight", "-1"), None),
    (("verify-cooperad", "--samples", "-1"), None),
    (("kernels", "--kind", "symmetric", "--m-max", "-1", "--n-max", "2"), None),
    (("kernels", "--kind", "symmetric", "--m-max", "2", "--n-max", "-1"), None),
    # negative pole budgets
    (("npoint", "--preset", "heisenberg", "--gens", "a,a", "--pole-bound", "-1"), None),
    (("filtration", "--basis", "--arity", "2", "--subset", "1,2", "--level", "1",
      "--grading", "2", "--pole-budget", "-1"), None),
    (("dims", "--file", "PRES", "--max-weight", "2"), _DIAGONAL_DOC),
    # an explicit zero that skew symmetry contradicts
    (("ope", "--file", "PRES", "--a", "a", "--b", "b"),
     _doc("ab", [_rel("a", "b", 1), _rel("b", "a", 1, ("1", []))])),
    # empty items in comma-separated lists
    (("npoint", "--preset", "heisenberg", "--gens", "a,,a"), None),
    (("npoint", "--preset", "heisenberg", "--gens", "a,a,"), None),
    (("filtration", "--arity", "2", "--subset", "1,,2", "(z2-z1)^-1"), None),
    (("connective", "--arity", "2", "--sorts", "0,,1", "(z2-z1)^-1"), None),
    (("radical", "--file", "PRES", "--weight", "3"), _CONNECTIVITY1_DOC),
    (("radical", "--file", "PRES", "--weight", "3"), {**_CONNECTIVITY1_DOC, "connectivity": -1}),
]
# a singular product beyond the supported bound, the one case with its own class
_UNBOUNDED_OPE = (("ope", "--file", "PRES", "--a", "a", "--b", "a"), {
    "generators": [{"name": "a", "weight": 33}],
    "relations": [{"a": "a", "b": "a", "n": 65, "result": [{"coeff": "1", "word": []}]}],
})
_BAD_INPUTS.append(_UNBOUNDED_OPE)
# a key or flag that the preset does not take is rejected, not dropped
_BAD_INPUTS += [
    (("radical", "--preset", "virasoro", "--rank", "2", "--weight", "2"), None),
    (("dims", "--preset", "heisenberg", "--c", "1", "--max-weight", "2"), None),
    (("dims", "--file", "PRES", "--max-weight", "2"), {"preset": "virasoro", "rank": 2}),
    (("dims", "--file", "PRES", "--max-weight", "2"), {"preset": "heisenberg", "c": "1"}),
    (("dims", "--file", "PRES", "--preset", "virasoro", "--max-weight", "2"),
     {"preset": "virasoro", "c": "1/2"}),
    (("dims", "--file", "PRES", "--c", "1", "--max-weight", "2"),
     {"preset": "virasoro", "c": "1/2"}),
    (("dims", "--file", "PRES", "--rank", "2", "--max-weight", "2"),
     {"preset": "heisenberg", "rank": 1}),
]
# --norm belongs to theta_over_eta alone, and its norm is positive and even
_BAD_INPUTS += [
    (("oracle-dims", "--kind", "partitions", "--norm", "-8", "--max-weight", "4"), None),
    (("oracle-dims", "--kind", "partitions_min_part_2", "--norm", "2", "--max-weight", "4"),
     None),
    (("oracle-dims", "--kind", "theta_over_eta", "--norm", "-2", "--max-weight", "4"), None),
]
# a radical whose top weight has more spanning words than the size bound
_RADICAL_TOO_BIG = (("radical", "--preset", "heisenberg", "--rank", "3", "--weight", "40"), None)
_BAD_INPUTS.append(_RADICAL_TOO_BIG)


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
    error = ("UnboundedOPE" if (argv, document) == _UNBOUNDED_OPE
             else "ResourceLimit" if (argv, document) == _RADICAL_TOO_BIG else "SchemaError")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {error}: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flag, value, argv", [
    ("--gens", "a,,a", ("npoint", "--preset", "heisenberg")),
    ("--subset", "1,,2", ("filtration", "--arity", "2", "(z2-z1)^-1")),
    ("--sorts", "0,,1", ("connective", "--arity", "2", "(z2-z1)^-1")),
])
def test_empty_list_item_names_the_flag(flag, value, argv):
    # an empty item is not skipped: "a,,a" is not the two-point function
    proc = _vacalc_process(*argv, flag, value)
    assert proc.returncode == 1
    assert proc.stderr == f"error: SchemaError: empty item in {flag} list {value!r}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, flag", [
    (("insert", "--arity", "2", "--m", "1", "--p", "-1", "z1*z2"), "--p"),
    (("filtration", "--basis", "--arity", "2", "--subset", "1,2", "--level", "1",
      "--grading", "-1", "--pole-budget", "1"), "--grading"),
], ids=["insert-p", "filtration-grading"])
def test_negative_value_is_glued_to_its_flag(capsys, argv, flag):
    i = argv.index(flag)
    glued = argv[:i] + (f"{flag}={argv[i + 1]}",) + argv[i + 2:]
    code, out = invoke(capsys, *argv)
    assert code == 0 and out not in ("", "0\n")
    assert (code, out) == invoke(capsys, *glued)


@pytest.mark.parametrize("argv", [
    ("canon", "--arity", "2", "-z1*(z2-z1)^-1"),
    ("canon", "-z1*(z2-z1)^-1", "--arity", "2"),
    ("insert", "--arity", "2", "--m", "1", "--p", "0", "-z1*(z2-z1)^-1"),
    ("connective", "--arity", "2", "--sorts", "0,1,1", "-z1*(z2-z1)^-1"),
], ids=["canon", "canon-first", "insert", "connective"])
def test_leading_minus_expression_is_the_expression(capsys, argv):
    # an expression that starts with '-' is no option: it parses as after '--'
    i = argv.index("-z1*(z2-z1)^-1")
    code, out = invoke(capsys, *argv)
    assert code == 0 and out not in ("", "0\n")
    assert (code, out) == invoke(capsys, *argv[:i], *argv[i + 1:], "--", argv[i])
    assert invoke(capsys, "canon", "--arity", "2", "-z1") == (0, "-1 * z1\n")


# (command and its other required arguments, value flag): every flag that
# takes a value, of every subcommand, written out here rather than read from
# the parser; --kind and --preset are left out, as no one-dash value is one
# of their choices
_PRES = ("--preset", "virasoro")
_VALUE_FLAGS = [
    (("canon", "z1"), "--arity"),
    (("insert", "--m", "1", "--p", "0", "z1"), "--arity"),
    (("insert", "--arity", "2", "--p", "0", "z1"), "--m"),
    (("insert", "--arity", "2", "--m", "1", "z1"), "--p"),
    (("kernels", "--kind", "symmetric"), "--m-max"),
    (("kernels", "--kind", "symmetric"), "--n-max"),
    (("filtration", "--subset", "1,2", "z1"), "--arity"),
    (("filtration", "--arity", "2", "z1"), "--subset"),
    (("filtration", "--arity", "2", "--subset", "1,2", "--basis"), "--level"),
    (("filtration", "--arity", "2", "--subset", "1,2", "--basis"), "--grading"),
    (("filtration", "--arity", "2", "--subset", "1,2", "--basis"), "--pole-budget"),
    (("connective", "--sorts", "0,1,1", "z1"), "--arity"),
    (("connective", "--arity", "2", "--sorts", "0,1,1", "z1"), "--k"),
    (("connective", "--arity", "2", "z1"), "--sorts"),
    (("verify-cooperad",), "--arity-max"),
    (("verify-cooperad",), "--samples"),
    (("verify-cooperad",), "--order"),
    (("verify-cooperad",), "--seed"),
    (("dims", "--max-weight", "2"), "--file"),
    (("dims", *_PRES, "--max-weight", "2"), "--c"),
    (("dims", *_PRES, "--max-weight", "2"), "--rank"),
    (("dims", *_PRES), "--max-weight"),
    (("ope", "--a", "L", "--b", "L"), "--file"),
    (("ope", *_PRES, "--a", "L", "--b", "L"), "--c"),
    (("ope", *_PRES, "--a", "L", "--b", "L"), "--rank"),
    (("ope", *_PRES, "--b", "L"), "--a"),
    (("ope", *_PRES, "--a", "L"), "--b"),
    (("bracket", "--a", "L", "--b", "L", "--n", "1"), "--file"),
    (("bracket", *_PRES, "--a", "L", "--b", "L", "--n", "1"), "--c"),
    (("bracket", *_PRES, "--a", "L", "--b", "L", "--n", "1"), "--rank"),
    (("bracket", *_PRES, "--b", "L", "--n", "1"), "--a"),
    (("bracket", *_PRES, "--a", "L", "--n", "1"), "--b"),
    (("bracket", *_PRES, "--a", "L", "--b", "L"), "--n"),
    (("radical", "--weight", "2"), "--file"),
    (("radical", *_PRES, "--weight", "2"), "--c"),
    (("radical", *_PRES, "--weight", "2"), "--rank"),
    (("radical", *_PRES), "--weight"),
    (("npoint", "--gens", "L,L"), "--file"),
    (("npoint", *_PRES, "--gens", "L,L"), "--c"),
    (("npoint", *_PRES, "--gens", "L,L"), "--rank"),
    (("npoint", *_PRES), "--gens"),
    (("npoint", *_PRES, "--gens", "L,L"), "--pole-bound"),
    (("lattice-check",), "--cutoff"),
    (("oracle-dims", "--kind", "partitions", "--max-weight", "2"), "--norm"),
    (("oracle-dims", "--kind", "partitions"), "--max-weight"),
]


@pytest.mark.parametrize("argv, flag", _VALUE_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in _VALUE_FLAGS])
def test_every_value_flag_takes_a_one_dash_value(argv, flag):
    args = cli._parse([*argv, flag, "-1"])
    assert args == cli._parse([*argv, f"{flag}=-1"])
    assert getattr(args, flag[2:].replace("-", "_")) in (-1, "-1")


@pytest.mark.parametrize("argv", [
    ("canon", "--arity", "--", "2"),
    ("radical", "--preset", "virasoro", "--c", "--", "--weight", "2"),
    ("connective", "--arity", "2", "--sorts", "0,1,1", "--k", "--", "-1"),
], ids=["canon-arity", "radical-c", "connective-k"])
def test_double_dash_after_a_value_flag_is_a_usage_error(argv):
    # '--' ends the options, so it is no flag's value: the flag has none
    proc = _vacalc_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert "expected one argument" in proc.stderr


def test_insert_without_variables_is_a_bad_split():
    # an arity-0 function has no variable to split off, whatever m is
    proc = _vacalc_process("insert", "--arity", "0", "--m", "0", "--p", "0", "1")
    assert proc.returncode == 1
    assert proc.stderr == "error: BadSplit: a function of no variables has no variable to split\n"
    assert proc.stdout == ""


def test_json_error_carries_payload():
    # stderr gets the usual line plus one JSON object; stdout stays empty
    argv = ("npoint", "--preset", "heisenberg", "--gens", "a,a", "--pole-bound", "1")
    plain = _vacalc_process(*argv)
    proc = _vacalc_process(*argv, "--json")
    assert proc.returncode == plain.returncode == 1
    assert proc.stdout == plain.stdout == ""
    line, obj = proc.stderr.splitlines()
    assert line == plain.stderr.strip()
    assert json.loads(obj) == {
        "error": "NoLocalMatch",
        "message": "series of ['a', 'a'] has no local match within pole bound 1",
        "radius": 4,
        "candidates": 0,
        "exponents": None,
    }
    # an error without attributes carries its name and message only
    proc = _vacalc_process("canon", "--arity", "1", "--json", "z1^-1")
    assert set(json.loads(proc.stderr.splitlines()[1])) == {"error", "message"}


@pytest.mark.parametrize("doc, modes", [
    (_SL2_STRUCTURE_DOC, [0, 0]),
    (_SL2_CENTRAL_DOC, [0, 1]),
], ids=["structure-constant", "central-term"])
def test_jacobi_violation_is_a_one_line_error(tmp_path, doc, modes):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    argv = ("radical", "--file", str(path), "--weight", "3")
    plain = _vacalc_process(*argv)
    proc = _vacalc_process(*argv, "--json")
    assert proc.returncode == plain.returncode == 1
    assert proc.stdout == plain.stdout == ""
    assert "Traceback" not in proc.stderr
    line, obj = proc.stderr.splitlines()
    assert line.startswith("error: JacobiViolation: ")
    assert plain.stderr == line + "\n"
    obj = json.loads(obj)
    assert (obj["generators"], obj["modes"]) == (["e", "f", "h"], modes)


def _invoke_with_docs(capsys, tmp_path, argv):
    """invoke argv with each file name of _DOCS in it written out first."""
    for name in _DOCS.keys() & set(argv):
        (tmp_path / name).write_text(json.dumps(_DOCS[name]))
    return invoke(capsys, *(str(tmp_path / a) if a in _DOCS else a for a in argv))


# (id, argv, sha256 of stdout): the command-line outputs pinned byte for
# byte.  A new pin goes here.
_PINNED_OUTPUTS = [
    # the Virasoro four-point function by the Ward recursion
    ("npoint-virasoro-LLLL",
     ("npoint", "--preset", "virasoro", "--c", "1", "--gens", "L,L,L,L", "--json"),
     "dc4892ce656f2f557fecac77215512c4cd3c2c312a08f5925c80de4be4e9c50d"),
    # a vanishing four-point correlator (an odd number of a1): the
    # certificate compares two empty sums
    ("npoint-heisenberg-vanishing",
     ("npoint", "--preset", "heisenberg", "--rank", "2", "--gens", "a2,a1,a2,a2", "--json"),
     "560a69a5894e2af7c489b16d3155a569c008b2e98cf33bfc391b90d0c6a797e1"),
    ("npoint-heisenberg-form",
     ("npoint", "--file", "heisenberg_form.json", "--gens", "a1,a2,a1,a2", "--json"),
     "e0d20d9f9f023b47e703855d0dc957f75409fcf0ec53b18b5312156e6de00247"),
    ("radical-heisenberg-form",
     ("radical", "--file", "heisenberg_form.json", "--weight", "4", "--json"),
     "08e90f6f077675d8efc7d827c07b79637b53b84990d775766d0708820505ac49"),
    # one co-operation component with a multi-term inner factor
    ("insert-multi-term-inner",
     ("insert", "--arity", "4", "--m", "1", "--p", "2",
      "z1*(z3-z1)^-2*(z4-z2)^-1*(z4-z3)^-1", "--json"),
     "4a925a7ad4dc96becfaa457564ae6daf4a348adbe5442d7d35075c7ea1313ccd"),
    # the heaviest insert of the benchmark catalog: 567 pairs in 42 groups,
    # as JSON and as text
    ("insert-heaviest",
     ("insert", "--arity", "5", "--m", "2", "--p", "7",
      "z2^2*(z3-z1)^-2*(z4-z2)^-1*(z5-z2)^-1*(z5-z3)^-2", "--json"),
     "b69f5b9deab34bf57f48bed1738e0ce04bc2616837465d30a6291fb001cdbf75"),
    ("insert-heaviest-text",
     ("insert", "--arity", "5", "--m", "2", "--p", "7",
      "z2^2*(z3-z1)^-2*(z4-z2)^-1*(z5-z2)^-1*(z5-z3)^-2"),
     "746e1f66633d0c8b0ec7340438a56248b851998f665cdc688ad4821067f779bb"),
    # a three-point function over the non-abelian table
    ("npoint-sl2-efh", ("npoint", "--file", "sl2.json", "--gens", "e,f,h", "--json"),
     "40315c07e841aa64ad0e2cd28d56ca196befe33434eab5101aa9e036e278da4e"),
    # a radical over the non-abelian table: 192 kernel vectors with integer
    # and fractional coefficients
    ("radical-sl2-w6", ("radical", "--file", "sl2.json", "--weight", "6", "--json"),
     "0e88a93e8ba543754a235be4ad752f300f99d0dd977c15cf8f19ebee41080c50"),
    # the heaviest Virasoro and Heisenberg radicals of the benchmark catalog
    ("radical-virasoro-w12",
     ("radical", "--preset", "virasoro", "--c", "-68/7", "--weight", "12", "--json"),
     "f6e6b3bd4f428528aad73c7429cc306ad9b408619533596e83d6fe5a7eff1b2e"),
    ("radical-heisenberg3-w5",
     ("radical", "--preset", "heisenberg", "--rank", "3", "--weight", "5", "--json"),
     "de6c18ea69c96a84c3515882c9c4fa1fe34d3c189e9d3ccb0e03c4677fca00c9"),
    # the level-<=2 piece on the non-contiguous subset {1,2,4}
    ("filtration-basis-124",
     ("filtration", "--basis", "--arity", "4", "--subset", "1,2,4", "--level", "2",
      "--grading", "4", "--pole-budget", "4", "--json"),
     "5417d34376439ef2ecd936752abc54cd7862a96453995e3b9c4b61a6f99df138"),
    # the README's co-operad check, and the checks at arity cap 5 with each
    # sample drawn by counting
    ("verify-cooperad-readme",
     ("verify-cooperad", "--arity-max", "4", "--samples", "50", "--order", "4", "--json"),
     "091f6ee0c422193b0640115c5d0b05cc284ef491ff4fde6074d256505edf8284"),
    ("verify-cooperad-arity5",
     ("verify-cooperad", "--arity-max", "5", "--samples", "20", "--order", "3", "--seed", "5",
      "--json"),
     "c709a2574cc62ba271d1d170afa890c69bd50930d8ec90f88e6e0685604a0a12"),
    # the lattice check and the two closed-form kernel tables
    ("lattice-check", ("lattice-check", "--json"),
     "156d9a9a9f233492a83654f408d21efeb82a57af044bcd70a6b3d85d66afb822"),
    ("kernels-symmetric", ("kernels", "--kind", "symmetric", "--json"),
     "904ddf0e2822386b38b77d39ba106d5582e5317ca352296751e4d9ba013e09c3"),
    ("kernels-associative", ("kernels", "--kind", "associative", "--json"),
     "1b37d477a4108d7bbb6dc0619aa16da8d481dd94d6e4d9cbe400a2b41a2566e4"),
    # two deep poles of one variable: closed-form partial fractions
    ("canon-deep-poles", ("canon", "--arity", "3", "(z3-z1)^-12*(z3-z2)^-12", "--json"),
     "475e055b9491e26b176f4f54d07462358ccfbc99d9fe46e28dc4a11d5359ea6f"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [pin[1:] for pin in _PINNED_OUTPUTS],
                         ids=[pin[0] for pin in _PINNED_OUTPUTS])
def test_output_is_pinned(capsys, tmp_path, argv, digest):
    code, out = _invoke_with_docs(capsys, tmp_path, argv)
    assert code == 0
    assert _sha256(out) == digest


@contextlib.contextmanager
def _collector_off():
    """Disable the cyclic collector for the body, with every object that
    exists at its start frozen out of the collector's view, so that a
    gc.collect() in the body counts only the unreachable cycles made since,
    and traverses only the objects made since.  The shared parser is built
    first: argparse leaves cyclic help formatters behind once per process,
    when it builds a parser."""
    cli.build_parser()
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _invoke_counting_garbage(capsys, *argv):
    """invoke argv inside _collector_off: (exit code, stdout, number of
    objects that gc.collect() then finds unreachable)."""
    code = run(list(argv))
    garbage = gc.collect()
    return code, capsys.readouterr().out, garbage


def test_catalog_outputs_are_unchanged(capsys):
    # every op of the benchmark catalog, in all four workloads, prints the
    # bytes whose digest the catalog recorded when it was built, and leaves
    # no reference cycle behind: reference counting frees all it made
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "catalog.json"
    ops = [op for wl in json.loads(path.read_text()).values() for op in wl]
    assert len(ops) == 870
    with _collector_off():
        for op in ops:
            code, out, garbage = _invoke_counting_garbage(capsys, *op["argv"])
            assert code == 0 and _sha256(out)[:16] == op["digest"], op["argv"]
            assert garbage == 0, op["argv"]
            # every catalog op prints JSON: text written by hand must be
            # the canonical json.dumps text of what it encodes
            assert "--json" in op["argv"]
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", op["argv"]


@pytest.mark.parametrize("argv", [
    ("canon", "--arity", "2", "-z1*(z2-z1)^-1"),
    ("kernels", "--kind", "symmetric", "--m-max", "3"),
    ("dims", "--preset", "virasoro", "--c", "-22/5", "--max-weight", "6"),
    ("ope", "--preset", "virasoro", "--c", "1/2", "--a", "L", "--b", "L", "--json"),
    ("bracket", "--preset", "virasoro", "--c", "1", "--a", "L", "--b", "L", "--n", "1"),
    ("filtration", "--basis", "--arity", "2", "--subset", "1,2", "--level", "1",
     "--grading", "1", "--pole-budget", "1"),
    ("lattice-check", "--json"),
    ("oracle-dims", "--kind", "theta_over_eta", "--norm", "2", "--max-weight", "6"),
], ids=["canon", "kernels", "dims", "ope", "bracket", "filtration-basis", "lattice-check",
        "oracle-dims"])
def test_commands_outside_the_catalog_leave_no_cyclic_garbage(capsys, argv):
    with _collector_off():
        code, _, garbage = _invoke_counting_garbage(capsys, *argv)
    assert (code, garbage) == (0, 0)


def test_dims_counts_without_listing_words(capsys):
    # 481,225,800 spanning words at weight 40 alone: a listing would run out
    # of time and memory, so it runs first in a process stopped after 10 s
    argv = ("dims", "--preset", "heisenberg", "--rank", "3", "--max-weight", "40")
    proc = _vacalc_process(*argv, timeout=10)
    assert proc.returncode == 0 and proc.stdout.split()[-1] == "481225800"
    start = time.perf_counter()
    assert invoke(capsys, *argv) == (0, proc.stdout)
    assert time.perf_counter() - start < 1


def test_deep_poles_finish_within_ten_seconds():
    # a reduction by one rewrite step per path takes about 30 s and fails the bound
    _, argv, digest = next(pin for pin in _PINNED_OUTPUTS if pin[0] == "canon-deep-poles")
    proc = _vacalc_process(*argv, timeout=10)
    assert proc.returncode == 0
    assert _sha256(proc.stdout) == digest


def _power_of_sum(n):
    """The text of canon --arity 2 "(z1+z2)^n": every coefficient binomial."""
    def power(var, e):
        return "" if e == 0 else var if e == 1 else f"{var}^{e}"

    terms = [[str(comb(n, k)) if 0 < k < n else "", power("z1", n - k), power("z2", k)]
             for k in range(n + 1)]
    return " + ".join(" * ".join(f for f in t if f) for t in terms) + "\n"


# (id, argv, stdout): short outputs, compared as text
_EXACT_OUTPUTS = [
    ("canon-quotient", ("canon", "--arity", "2", "(z2-z1)^-1*z2"), "z1 * (z2-z1)^-1 + 1\n"),
    ("canon-power-of-sum", ("canon", "--arity", "2", "(z1+z2)^40"), _power_of_sum(40)),
    # trailing whitespace is skipped, as leading whitespace is
    ("canon-trailing-whitespace", ("canon", "--arity", "1", "z1 \t"), "z1\n"),
    # the text of the pinned co-operation component
    ("insert-multi-term-inner",
     ("insert", "--arity", "4", "--m", "1", "--p", "2", "z1*(z3-z1)^-2*(z4-z2)^-1*(z4-z3)^-1"),
     "2 * [z1 * (z2-z1)^-3] (x) [t1 * (t2-t1)^-1 * (t3-t1)^-1 + (t3-t1)^-1"
     " + -1 * t1 * (t2-t1)^-1 * (t3-t2)^-1 + -1 * (t3-t2)^-1]\n"),
    ("npoint-virasoro-LLL", ("npoint", "--preset", "virasoro", "--c", "1/2", "--gens", "L,L,L"),
     "1/2 * (z2-z1)^-4 * (z3-z1)^-2 + (z2-z1)^-5 * (z3-z1)^-1"
     " + 1/2 * (z2-z1)^-4 * (z3-z2)^-2 + -1 * (z2-z1)^-5 * (z3-z2)^-1\n"),
    # multi-generator Heisenberg correlators: one Wick pairing, and none
    ("npoint-heisenberg-one-pairing",
     ("npoint", "--preset", "heisenberg", "--rank", "3", "--gens", "a1,a2,a1,a2"),
     "(z3-z1)^-2 * (z4-z2)^-2\n"),
    ("npoint-heisenberg-no-pairing",
     ("npoint", "--preset", "heisenberg", "--rank", "3", "--gens", "a2,a1,a3,a1"), "0\n"),
    ("ope-reversed", ("ope", "--file", "reversed.json", "--a", "a", "--b", "b"), "n=1: 1\n"),
    ("radical-reversed", ("radical", "--file", "reversed.json", "--weight", "1"),
     "dimension 0\n"),
    # the lowest radical weight of affine sl2 at level k = 1 is k + 1, of
    # dimension 2k + 3
    ("radical-sl2-w2", ("radical", "--file", "sl2.json", "--weight", "2"),
     "dimension 5\n"
     "kernel: e(-1)e(-1)1\n"
     "kernel: f(-1)f(-1)1\n"
     "kernel: -1 * e(-2)1 + h(-1)e(-1)1\n"
     "kernel: f(-2)1 + h(-1)f(-1)1\n"
     "kernel: -2 * f(-1)e(-1)1 + -1 * h(-2)1 + h(-1)h(-1)1\n"),
    # e and f flip sign together under a symmetry of the table, so a
    # correlator with one of them is 0 by the selection rule
    ("npoint-sl2-selection-rule", ("npoint", "--file", "sl2.json", "--gens", "e,h"), "0\n"),
    # the level-<=2 piece on {1,2} at grading 6 has dimension 9
    ("filtration-basis-12",
     ("filtration", "--basis", "--arity", "3", "--subset", "1,2", "--level", "2",
      "--grading", "6", "--pole-budget", "6"),
     "(z3-z1)^-6\n"
     "(z2-z1)^-1 * (z3-z1)^-5\n"
     "(z2-z1)^-2 * (z3-z1)^-4\n"
     "(z2-z1)^-3 * (z3-z1)^-3 + -1 * (z2-z1)^-3 * (z3-z2)^-3\n"
     "(z2-z1)^-4 * (z3-z1)^-2 + 2 * (z2-z1)^-3 * (z3-z2)^-3 + -1 * (z2-z1)^-4 * (z3-z2)^-2\n"
     "(z2-z1)^-5 * (z3-z1)^-1 + -1 * (z2-z1)^-3 * (z3-z2)^-3 + (z2-z1)^-4 * (z3-z2)^-2"
     " + -1 * (z2-z1)^-5 * (z3-z2)^-1\n"
     "(z3-z2)^-6\n"
     "(z2-z1)^-1 * (z3-z2)^-5\n"
     "(z2-z1)^-2 * (z3-z2)^-4\n"),
    # the co-operad axiom checks at a fixed seed
    ("verify-cooperad-seed1",
     ("verify-cooperad", "--arity-max", "4", "--samples", "6", "--order", "3", "--seed", "1"),
     "checks 217 failures 0\n"),
]


@pytest.mark.parametrize("argv, want", [case[1:] for case in _EXACT_OUTPUTS],
                         ids=[case[0] for case in _EXACT_OUTPUTS])
def test_exact_output(capsys, tmp_path, argv, want):
    assert _invoke_with_docs(capsys, tmp_path, argv) == (0, want)


def test_leftover_token_is_reported_by_vacalc():
    proc = _vacalc_process("canon", "--arity", "2", "z1", "extra")
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "vacalc: error: unrecognized arguments: extra"


def test_deep_nesting_is_a_one_line_error():
    proc = _vacalc_process("canon", "--arity", "1", "(" * 1000 + "z1" + ")" * 1000)
    assert proc.returncode == 1
    assert proc.stderr == "error: ParseError: parentheses nested deeper than 100\n"
    assert proc.stdout == ""


# names of code that was removed, or moved into the tests as an independent
# checker: argv reaches argparse unchanged, the exact kernel returns its own
# scale, a TensorElement is built from its expanded sum only, a linear
# system is solved through _kernel, and function JSON is written as text,
# its dict-building route kept as the tests' reference
_REMOVED_NAMES = re.compile(
    r"_nf_word_bubble|eval_raw|_entry_mode|NonTerminating|_merge_negative_values"
    r"|_option_strings|_scaled_echelon|_norm_terms|_from_expanded|_solve\b"
    r"|_nf_word_suffix|step_bound|map_factors|_creation_terms|_fn_obj"
)


def test_removed_names_stay_removed():
    package = pathlib.Path(vacalc.__file__).parent
    lines = {str(p.relative_to(package)): p.read_text().splitlines()
             for p in package.rglob("*.py")}
    assert [(name, line) for name, text in lines.items() for line in text
            if _REMOVED_NAMES.search(line)] == []
    # vacore does not import the oracle that certifies it; its docstring
    # names fockoracle, so only import lines count
    assert [line for line in lines["vacore.py"]
            if re.match(r"\s*(from|import)\b.*fockoracle", line)] == []


def _unused_imports(source):
    """Names bound by a module-level import that the module never reads and
    whose __all__ does not list; __future__ imports are directives."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


def test_every_import_is_used():
    package = pathlib.Path(vacalc.__file__).parent
    found = {p.name: _unused_imports(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
    # the scan sees an import left behind, and a name listed in __all__
    assert _unused_imports("import json\nfrom .a import b, c\nc()\n") == ["json", "b"]
    assert _unused_imports("from .a import b\n__all__ = ['b']\n") == []


def _self_calling_nested_functions(source):
    """(line, name) of every function defined inside another function whose
    body calls it by its own name."""
    found = []
    stack = [(ast.parse(source), False)]
    while stack:
        node, nested = stack.pop()
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def and nested and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == child.name
                for n in ast.walk(child)
            ):
                found.append((child.lineno, child.name))
            stack.append((child, nested or is_def))
    return sorted(found)


def test_no_nested_function_calls_itself():
    # a nested function that calls itself holds its own closure cell, a
    # reference cycle that keeps everything it captured alive until the
    # cyclic collector runs; a module-level helper with its state as
    # arguments is freed by reference counting when the call returns
    assert _self_calling_nested_functions(
        "def f(n):\n    def g(k):\n        return g(k - 1) if k else 0\n    return g(n)\n"
    ) == [(2, "g")]
    package = pathlib.Path(vacalc.__file__).parent
    found = [(p.name, *hit) for p in sorted(package.glob("*.py"))
             for hit in _self_calling_nested_functions(p.read_text())]
    assert found == []
    # and the package leaves collection to the interpreter
    assert [p.name for p in package.glob("*.py")
            if re.search(r"^\s*(import gc|from gc import)", p.read_text(), re.M)] == []


@pytest.mark.parametrize("argv", [
    ("canon", "--arity", "2", "(z2-z1)^-1*z2"),
    ("verify-cooperad", "--arity-max", "4", "--samples", "6", "--order", "3",
     "--seed", "1", "--json"),
], ids=["canon", "verify-cooperad"])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the short output fails at the final flush, the long one inside print
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _vacalc_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["canon"])  # missing required pieces
    assert exc.value.code == 2
    # the parser is shared across runs; a usage error leaves it working
    assert invoke(capsys, "canon", "--arity", "2", "(z1-z2)^-1") == (0, "-1 * (z2-z1)^-1\n")


@pytest.mark.parametrize("argv", [
    ("--level", "3", "--grading", "9", "(z2-z1)^-2"),
    ("--basis", "--level", "1", "--grading", "1", "--pole-budget", "1", "z1"),
], ids=["basis-flags-without-basis", "expression-with-basis"])
def test_filtration_mode_mixups_are_usage_errors(argv):
    proc = _vacalc_process("filtration", "--arity", "2", "--subset", "1,2", *argv)
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def test_byte_determinism(capsys):
    args = ("verify-cooperad", "--samples", "8", "--order", "3", "--json")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    assert first == second


# one valid argv per command
_VALID_ARGVS = [
    ("canon", "--arity", "2", "-z1*(z2-z1)^-1"),
    ("insert", "--arity", "2", "--m", "1", "--p", "-1", "z1*z2", "--json"),
    ("kernels", "--kind", "symmetric", "--m-max", "3"),
    ("filtration", "--basis", "--arity", "2", "--subset", "1,2", "--level", "1",
     "--grading", "1", "--pole-budget", "1"),
    ("connective", "--arity", "2", "--k", "0", "--sorts", "0,1,1", "(z2-z1)^-2"),
    ("verify-cooperad", "--samples", "6", "--order", "2"),
    ("dims", "--preset", "virasoro", "--c", "-22/5", "--max-weight", "6"),
    ("ope", "--preset", "virasoro", "--c", "1/2", "--a", "L", "--b", "L", "--json"),
    ("bracket", "--preset", "virasoro", "--c", "1", "--a", "L", "--b", "L", "--n", "1"),
    ("radical", "--preset", "virasoro", "--c", "-22/5", "--weight", "4"),
    ("npoint", "--preset", "heisenberg", "--rank", "2", "--gens", "a1,a1"),
    ("lattice-check", "--cutoff", "3"),
    ("oracle-dims", "--kind", "theta_over_eta", "--norm", "2", "--max-weight", "6"),
]

# (id, argv): argvs that parse, that fail in the program, and usage errors
# of every kind, with '--' in each place it can stand
_PARSE_ARGVS = (
    [(argv[0], argv) for argv in _VALID_ARGVS]
    + [(f"bad{i}", argv) for i, (argv, _) in enumerate(_BAD_INPUTS)]
    + [
        ("empty", ()),
        ("-h", ("-h",)),
        ("--help", ("--help",)),
        ("-hx", ("-hx",)),
        ("bogus", ("bogus", "--arity", "2")),
        ("canon-h", ("canon", "-h")),
        ("canon-hx", ("canon", "--arity", "2", "-hx")),
        ("extra-positional", ("canon", "--arity", "2", "z1", "extra")),
        ("unknown-flag", ("canon", "--arity", "2", "--bogus", "z1")),
        ("abbreviation", ("canon", "--ar", "2", "z1")),
        ("missing-required", ("canon", "z1")),
        ("leading-dashdash", ("--", "canon", "--arity", "2", "z1")),
        ("dashdash-before-expr", ("canon", "--arity", "2", "--", "-z1")),
        ("dashdash-trailing", ("canon", "--arity", "2", "-z1", "--")),
        ("dashdash-canon-arity", ("canon", "--arity", "--", "2")),
        ("dashdash-radical-c", ("radical", "--preset", "virasoro", "--c", "--",
                                "--weight", "2")),
        ("dashdash-connective-k", ("connective", "--arity", "2", "--sorts", "0,1,1",
                                   "--k", "--", "-1")),
    ]
)


def _parse_outcome(capsys, parse, argv):
    """(exit code or None, stdout, stderr, vars of the namespace or None)."""
    try:
        code, ns = None, vars(parse(list(argv)))
    except SystemExit as exc:
        code, ns = exc.code, None
    out, err = capsys.readouterr()
    return code, out, err, ns


@pytest.mark.parametrize("argv", [argv for _, argv in _PARSE_ARGVS],
                         ids=[name for name, _ in _PARSE_ARGVS])
def test_command_parser_matches_top_level_parse(capsys, argv):
    # the top-level parse, kept here as the reference for cli._parse
    want = _parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert _parse_outcome(capsys, cli._parse, argv) == want
    if argv in _VALID_ARGVS:
        assert want[0] is None and want[3]["command"] == argv[0]


@pytest.mark.parametrize("argv", _VALID_ARGVS, ids=[argv[0] for argv in _VALID_ARGVS])
def test_command_argv_is_parsed_once(monkeypatch, argv):
    # an argv that names a command never reaches the top-level parser
    want = cli._parse(list(argv))

    def top_level(*args, **kwargs):
        raise AssertionError("parsed by the top-level parser")

    monkeypatch.setattr(cli.build_parser(), "parse_known_args", top_level)
    assert cli._parse(list(argv)) == want
