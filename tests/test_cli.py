"""Command-line interface tests: exact text output, JSON round trips,
exit codes, and byte determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import vacalc
from vacalc import cli
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


@pytest.mark.parametrize("cls, argv", [
    ("cooperad.TensorElement", ("insert", "--arity", "2", "--m", "1", "--p", "2", "(z2-z1)^-1")),
    ("vacore.VAElement", ("radical", "--preset", "virasoro", "--c", "-22/5", "--weight", "4")),
])
def test_each_output_mode_builds_only_its_own_text(monkeypatch, capsys, cls, argv):
    module, name = cls.split(".")
    cls = getattr(getattr(vacalc, module), name)

    def unused(self):
        raise AssertionError("built for the other output mode")

    want = invoke(capsys, *argv)
    want_json = invoke(capsys, *argv, "--json")
    with monkeypatch.context() as m:
        m.setattr(cls, "__str__", unused)
        assert invoke(capsys, *argv, "--json") == want_json
    monkeypatch.setattr(cls, "to_obj", unused)
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


def _vacalc_process(*argv, stdout=subprocess.PIPE):
    src = os.path.dirname(os.path.dirname(os.path.abspath(vacalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "vacalc", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


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
    # a diagonal row that breaks skew symmetry with itself
    (("dims", "--file", "PRES", "--max-weight", "2"), {
        "generators": [{"name": "a", "weight": 1}],
        "relations": [
            {"a": "a", "b": "a", "n": 0, "result": [{"coeff": "1", "word": [["a", -1]]}]},
            {"a": "a", "b": "a", "n": 1, "result": [{"coeff": "1", "word": []}]},
        ],
    }),
    # an explicit zero that skew symmetry contradicts
    (("ope", "--file", "PRES", "--a", "a", "--b", "b"), {
        "generators": [{"name": "a", "weight": 1}, {"name": "b", "weight": 1}],
        "relations": [
            {"a": "a", "b": "b", "n": 1, "result": []},
            {"a": "b", "b": "a", "n": 1, "result": [{"coeff": "1", "word": []}]},
        ],
    }),
    # empty items in comma-separated lists
    (("npoint", "--preset", "heisenberg", "--gens", "a,,a"), None),
    (("npoint", "--preset", "heisenberg", "--gens", "a,a,"), None),
    (("filtration", "--arity", "2", "--subset", "1,,2", "(z2-z1)^-1"), None),
    (("connective", "--arity", "2", "--sorts", "0,,1", "(z2-z1)^-1"), None),
    # only connectivity 0 is accepted
    (("radical", "--file", "PRES", "--weight", "3"), {
        "generators": [{"name": "a", "weight": 1}],
        "relations": [{"a": "a", "b": "a", "n": 1, "result": [{"coeff": "1", "word": []}]}],
        "connectivity": 1,
    }),
    (("radical", "--file", "PRES", "--weight", "3"), {
        "generators": [{"name": "a", "weight": 1}],
        "relations": [{"a": "a", "b": "a", "n": 1, "result": [{"coeff": "1", "word": []}]}],
        "connectivity": -1,
    }),
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
    error = "UnboundedOPE" if (argv, document) == _UNBOUNDED_OPE else "SchemaError"
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


def test_npoint_virasoro_four_point_output_is_pinned():
    proc = _vacalc_process("npoint", "--preset", "virasoro", "--c", "1", "--gens", "L,L,L,L",
                           "--json")
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "dc4892ce656f2f557fecac77215512c4cd3c2c312a08f5925c80de4be4e9c50d"
    )


# affine sl2 at level 1, the document of the CI console-script step
_SL2_DOC = {
    "generators": [{"name": g, "weight": 1} for g in "efh"],
    "relations": [
        {"a": "e", "b": "f", "n": 0, "result": [{"coeff": "1", "word": [["h", -1]]}]},
        {"a": "e", "b": "f", "n": 1, "result": [{"coeff": "1", "word": []}]},
        {"a": "e", "b": "h", "n": 0, "result": [{"coeff": "-2", "word": [["e", -1]]}]},
        {"a": "f", "b": "h", "n": 0, "result": [{"coeff": "2", "word": [["f", -1]]}]},
        {"a": "h", "b": "h", "n": 1, "result": [{"coeff": "2", "word": []}]},
    ],
}


@pytest.mark.parametrize("relation, coeff, modes", [
    (2, "-3", [0, 0]),  # [e,h]_0 = -3e
    (4, "3", [0, 1]),  # [h,h]_1 = 3
], ids=["structure-constant", "central-term"])
def test_jacobi_violation_is_a_one_line_error(tmp_path, relation, coeff, modes):
    doc = json.loads(json.dumps(_SL2_DOC))
    doc["relations"][relation]["result"][0]["coeff"] = coeff
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc))
    proc = _vacalc_process("radical", "--file", str(path), "--weight", "3", "--json")
    assert proc.returncode == 1
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    line, obj = proc.stderr.splitlines()
    assert line.startswith("error: JacobiViolation: ")
    obj = json.loads(obj)
    assert (obj["generators"], obj["modes"]) == (["e", "f", "h"], modes)


def test_radical_affine_sl2_output_is_pinned(tmp_path):
    # a radical over a non-abelian table, byte for byte: 192 kernel vectors
    # with integer and fractional coefficients
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(_SL2_DOC))
    proc = _vacalc_process("radical", "--file", str(path), "--weight", "6", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 192
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "0e88a93e8ba543754a235be4ad752f300f99d0dd977c15cf8f19ebee41080c50"
    )


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
