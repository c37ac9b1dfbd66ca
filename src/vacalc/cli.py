"""Command-line front end.

One subcommand per operation; output is human-readable text by default and
JSON with --json.  Exit codes: 0 on success, 1 on a domain error (bad pole,
weight mismatch, ...) or a closed stdout, 2 on usage errors.  Rationals are
always printed as p/q, and term orders are the canonical ones, so identical
invocations give byte-identical output.  JSON output is always the text of
json.dumps(obj, sort_keys=True): dict outputs go through _dumps, while
functions, tensor components and the verify-cooperad report print the
text their writers build, each repeated fragment formatted once.

Each argv is parsed once, by the parser of the command it names; tokens
that parser leaves over are reported by the top-level `vacalc` parser, as
argparse's own parse_args reports them.
"""

import argparse
import functools
import json
import os
import re
import sys

from . import fockoracle
from .cooperad import (
    associative_expansion,
    filtration_basis,
    in_connective,
    insert_component,
    kernel_table,
    SortSignature,
    symmetric_expansion,
    verify_axioms,
    _report_json,
)
from .errors import SchemaError, VacalcError
from .localfn import canonicalize, parse, _fn_json
from .vacore import (
    _integer,
    check_uniform_bound,
    graded_dims,
    load_presentation,
    npoint_ward,
    ope_singular,
    parse_element,
    radical_slice,
)

def _pres_from_args(args):
    """The presentation that --file or --preset names.  The document of
    --file states the whole presentation, so --preset, --c and --rank next
    to it are a SchemaError, as a preset rejects a key it does not take."""
    if getattr(args, "file", None):
        for flag in ("preset", "c", "rank"):
            if getattr(args, flag, None) is not None:
                raise SchemaError(f"--{flag} cannot be given with --file")
        try:
            with open(args.file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read presentation file: {exc}") from exc
        return load_presentation(text)
    preset = getattr(args, "preset", None)
    if preset is None:
        raise VacalcError("need --preset or --file")
    doc = {"preset": preset}
    if getattr(args, "c", None) is not None:
        doc["c"] = args.c
    if getattr(args, "rank", None) is not None:
        doc["rank"] = args.rank
    return load_presentation(doc)


def _dumps(obj):
    """The JSON text of an output object, keys sorted."""
    # every emitted object is freshly built and holds no cycle
    return json.dumps(obj, sort_keys=True, check_circular=False)


def _fns_json(fns):
    """The JSON text of a list of functions, each distinct factor written
    once for the whole list."""
    factors = {}
    return "[" + ", ".join(_fn_json(f.arity, f.sorted_terms(), factors) for f in fns) + "]"


def _emit(args, human, json_text):
    """Print json_text() with --json and human() otherwise; each output is
    built only when it is printed."""
    print(json_text() if args.json else human())


def _items(text, flag):
    """The comma-separated items of a flag's value; an empty item is an error."""
    items = [x.strip() for x in text.split(",")]
    if "" in items:
        raise SchemaError(f"empty item in {flag} list {text!r}")
    return items


def _int_list(text, flag):
    return [_integer(x, flag) for x in _items(text, flag)]


def _nonnegative(value, flag):
    if value < 0:
        raise SchemaError(f"{flag} must be >= 0")
    return value


def _add_pres_flags(sub):
    sub.add_argument("--preset", choices=["heisenberg", "virasoro"])
    sub.add_argument("--file")
    sub.add_argument("--c")
    sub.add_argument("--rank", type=int)


@functools.cache
def _parsers():
    """The top-level parser and the map from each command name to its own
    parser, built once per process and shared by every run; parsing changes
    neither."""
    ap = argparse.ArgumentParser(
        prog="vacalc",
        description="Exact workbench for local-function co-operations and "
        "vertex algebras presented by generators and relations.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    def cmd(name, help_):
        p = sp.add_parser(name, help=help_)
        # argparse takes a token with one leading '-' that is no option of
        # the parser as a value when it matches this pattern (by default only
        # negative numbers do), so --c -22/5 and canon --arity 2 -z1 parse;
        # that holds while no option string matches it: every option below
        # is --long, and -h is registered before the assignment
        p._negative_number_matcher = re.compile(r"-[^-]")
        p.add_argument("--json", action="store_true")
        return p

    p = cmd("canon", "canonical form of an expression")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("expr")

    p = cmd("insert", "one bidegree component of the cluster co-operation")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("expr")

    p = cmd("kernels", "expansion-kernel coefficient table, both orders checked")
    p.add_argument("--kind", choices=["symmetric", "associative"], required=True)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--n-max", type=int, default=8)

    p = cmd("filtration", "cluster filtration level, or the adapted basis")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("expr", nargs="?")
    p.add_argument("--basis", action="store_true")
    p.add_argument("--level", type=int)
    p.add_argument("--grading", type=int)
    p.add_argument("--pole-budget", type=int)

    p = cmd("connective", "membership in the connectivity-k piece")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--sorts", required=True, help="out-sort,sort1,...,sortm")
    p.add_argument("expr")

    p = cmd("verify-cooperad", "equivariance / commutativity / coassociativity checks")
    p.add_argument("--arity-max", type=int, default=4)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--order", type=int, default=4, help="grading window")
    p.add_argument("--seed", type=int, default=0)

    p = cmd("dims", "graded dimensions of a presentation")
    _add_pres_flags(p)
    p.add_argument("--max-weight", type=int, required=True)

    p = cmd("ope", "singular products of two generators")
    _add_pres_flags(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = cmd("bracket", "mode product a(n)b of two states")
    _add_pres_flags(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=int, required=True)

    p = cmd("radical", "kernel of all lowering words at one weight")
    _add_pres_flags(p)
    p.add_argument("--weight", type=int, required=True)

    p = cmd("npoint", "vacuum correlation function of generator insertions")
    _add_pres_flags(p)
    p.add_argument("--gens", required=True, help="comma-separated generator names")
    p.add_argument("--pole-bound", type=int)

    p = cmd("lattice-check", "verify the rank-1 lattice relations in the realization")
    p.add_argument("--cutoff", type=int, default=4)

    p = cmd("oracle-dims", "certification series coefficients")
    p.add_argument("--kind", required=True,
                   choices=["partitions", "partitions_min_part_2", "theta_over_eta"])
    p.add_argument("--norm", type=int, help="lattice norm of theta_over_eta (default 2)")
    p.add_argument("--max-weight", type=int, required=True)
    return ap, sp.choices


def build_parser():
    """The top-level argument parser."""
    return _parsers()[0]


def _parse(argv):
    """The namespace that build_parser().parse_args(argv) gives, parsed once.

    The top-level parser would only hand the tokens after a command name on
    to that command's parser, so such an argv goes there directly.  An argv
    that names no command (empty, -h, an unknown name, a leading --) takes
    the top-level route."""
    ap, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return ap.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        ap.error("unrecognized arguments: " + " ".join(extra))
    return args


def run(argv):
    ap = build_parser()
    args = _parse(argv)

    if args.command == "canon":
        f = canonicalize(parse(args.expr, args.arity))
        _emit(args, f.format, f.to_json)

    elif args.command == "insert":
        f = canonicalize(parse(args.expr, args.arity))
        te = insert_component(f, args.m, args.p)
        _emit(args, lambda: str(te), te.to_json)

    elif args.command == "kernels":
        _nonnegative(args.m_max, "--m-max")
        _nonnegative(args.n_max, "--n-max")
        coeffs = kernel_table(args.kind, args.m_max, args.n_max)
        if args.kind == "symmetric":
            one = symmetric_expansion("u", args.m_max, args.n_max)
            two = symmetric_expansion("v", args.m_max, args.n_max)
        else:
            one = associative_expansion(1, args.m_max, args.n_max)
            two = associative_expansion(2, args.m_max, args.n_max)
        agree = all(
            one.get(kk, 0) == two.get(kk, 0) == cc for kk, cc in coeffs.items()
        )

        def human():
            lines = [
                f"{m} {n} {coeffs[(m, n)]}"
                for m in range(args.m_max + 1)
                for n in range(args.n_max + 1)
            ]
            lines.append(f"expansion orders agree: {'yes' if agree else 'NO'}")
            return "\n".join(lines)

        _emit(args, human, lambda: _dumps({
            "kind": args.kind,
            "orders_agree": agree,
            "coefficients": {f"{m},{n}": str(c) for (m, n), c in sorted(coeffs.items())},
        }))
        if not agree:
            return 1

    elif args.command == "filtration":
        subset = _int_list(args.subset, "--subset")
        if args.basis == (args.expr is not None):
            ap.error("--basis takes no expression" if args.basis
                     else "need an expression unless --basis is given")
        # each flag of the basis mode is required with --basis, refused without
        for flag in ("level", "grading", "pole_budget"):
            if (getattr(args, flag) is None) == args.basis:
                name = "--" + flag.replace("_", "-")
                ap.error(f"--basis needs {name}" if args.basis else f"{name} needs --basis")
        if args.basis:
            fns = filtration_basis(
                args.arity, subset, args.level, args.grading, args.pole_budget
            )
            _emit(args, lambda: "\n".join(f.format() for f in fns) or "(empty)",
                  lambda: _fns_json(fns))
        else:
            f = canonicalize(parse(args.expr, args.arity))
            lvl = f.collision_level(subset)
            _emit(args, lambda: f"level {lvl}", lambda: _dumps({"level": lvl}))

    elif args.command == "connective":
        sorts = _int_list(args.sorts, "--sorts")
        if len(sorts) != args.arity + 1:
            ap.error("--sorts needs the output sort plus one sort per variable")
        f = canonicalize(parse(args.expr, args.arity))
        ans = in_connective(f, args.k, SortSignature(sorts[0], sorts[1:]))
        _emit(args, lambda: "true" if ans else "false", lambda: _dumps({"in_connective": ans}))

    elif args.command == "verify-cooperad":
        rep = verify_axioms(args.arity_max, args.samples, args.order, args.seed)

        def human():
            lines = [f"checks {len(rep['checks'])} failures {rep['failures']}"]
            for c in rep["checks"]:
                if c["status"] == "fail":
                    lines.append(f"FAIL {c['kind']} input={c['input']} component={c['component']}")
            return "\n".join(lines)

        _emit(args, human, lambda: _report_json(rep))
        if rep["failures"]:
            return 1

    elif args.command == "dims":
        pres = _pres_from_args(args)
        dims = graded_dims(pres, _nonnegative(args.max_weight, "--max-weight"))
        _emit(args, lambda: " ".join(map(str, dims)), lambda: _dumps({"dims": dims}))

    elif args.command == "ope":
        pres = _pres_from_args(args)
        terms = ope_singular(pres, args.a, args.b)
        _emit(args, lambda: "\n".join(f"n={n}: {el}" for n, el in terms) or "(regular product)",
              lambda: _dumps({
                  "bound": check_uniform_bound(pres, args.a, args.b),
                  "singular": [{"n": n, "result": el.to_obj()} for n, el in terms],
              }))

    elif args.command == "bracket":
        pres = _pres_from_args(args)
        a = parse_element(pres, args.a)
        b = parse_element(pres, args.b)
        out = pres.bracket(a, b, args.n)
        _emit(args, lambda: str(out), lambda: _dumps(out.to_obj()))

    elif args.command == "radical":
        pres = _pres_from_args(args)
        rs = radical_slice(pres, _nonnegative(args.weight, "--weight"))
        _emit(args, lambda: "\n".join([f"dimension {rs.dimension}"]
                                      + [f"kernel: {el}" for el in rs.kernel]),
              lambda: _dumps({
                  "weight": rs.weight,
                  "dimension": rs.dimension,
                  "basis": [pres.word_str(w) for w in rs.basis],
                  "kernel": [el.to_obj() for el in rs.kernel],
              }))

    elif args.command == "npoint":
        pres = _pres_from_args(args)
        gens = _items(args.gens, "--gens")
        bound = args.pole_bound
        if bound is None:
            bound = sum(pres.wt(pres.gen_index(g)) for g in gens)
        f = npoint_ward(pres, gens, bound)
        _emit(args, f.format, f.to_json)

    elif args.command == "lattice-check":
        rep = fockoracle.lattice_check(args.cutoff)

        def human():
            lines = [f"checks {len(rep['checks'])} failures {rep['failures']}"]
            for c in rep["checks"]:
                mark = "ok " if c["status"] == "ok" else "FAIL"
                lines.append(f"{mark} {c['kind']}: {c['detail']}")
            return "\n".join(lines)

        _emit(args, human, lambda: _dumps(rep))
        if rep["failures"]:
            return 1

    elif args.command == "oracle-dims":
        _nonnegative(args.max_weight, "--max-weight")
        kind = args.kind
        if kind == "theta_over_eta":
            kind = (kind, 2 if args.norm is None else args.norm)
        elif args.norm is not None:
            raise SchemaError(f"--kind {kind} takes no --norm")
        dims = fockoracle.series_dims(kind, args.max_weight)
        _emit(args, lambda: " ".join(map(str, dims)), lambda: _dumps({"dims": dims}))

    return 0


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except VacalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        # run parsed these arguments before anything could raise
        if _parse(sys.argv[1:]).json:
            obj = {"error": type(exc).__name__, "message": str(exc), **exc.payload()}
            print(_dumps(obj), file=sys.stderr)
        code = 1
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # own flush at exit cannot fail again (the recipe in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
