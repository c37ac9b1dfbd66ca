"""Command-line front end.

One subcommand per operation; output is human-readable text by default and
JSON with --json.  Exit codes: 0 on success, 1 on a domain error (bad pole,
weight mismatch, ...), 2 on usage errors.  Rationals are always printed as
p/q, and term orders are the canonical ones, so identical invocations give
byte-identical output.
"""

import argparse
import json
import sys

from . import fockoracle
from .cooperad import (
    associative_expansion,
    filtration_basis,
    filtration_level,
    in_connective,
    insert_component,
    kernel_table,
    SortSignature,
    symmetric_expansion,
    verify_axioms,
)
from .errors import SchemaError, VacalcError
from .localfn import LocalFn, canonicalize, parse
from .vacore import (
    check_uniform_bound,
    graded_dims,
    lattice_check,
    load_presentation,
    npoint_vacuum,
    ope_singular,
    parse_element,
    radical_slice,
)

_VALUE_FLAGS = {
    "--arity", "--m", "--p", "--subset", "--k", "--sorts", "--preset", "--c",
    "--norm", "--rank", "--weight", "--max-weight", "--cutoff", "--samples",
    "--order", "--seed", "--file", "--kind", "--m-max", "--n-max",
    "--arity-max", "--a", "--b", "--n", "--gens", "--pole-bound",
    "--grading", "--level", "--pole-budget",
}


def _merge_negative_values(argv):
    """Glue values starting with '-' onto their flag so argparse accepts
    things like --c -22/5."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and argv[i + 1] not in _VALUE_FLAGS
            and argv[i + 1] != "--json"
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _pres_from_args(args):
    if getattr(args, "file", None):
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
    if getattr(args, "norm", None) is not None:
        doc["norm"] = args.norm
    return load_presentation(doc)


def _emit(args, human, obj):
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(human)


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _add_pres_flags(sub, with_c=True):
    sub.add_argument("--preset", choices=["heisenberg", "virasoro", "lattice_rank1"])
    sub.add_argument("--file")
    if with_c:
        sub.add_argument("--c")
    sub.add_argument("--rank", type=int)
    sub.add_argument("--norm", type=int)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vacalc",
        description="Exact workbench for local-function co-operations and "
        "vertex algebras presented by generators and relations.",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    def cmd(name, help_):
        p = sp.add_parser(name, help=help_)
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
    p.add_argument("--norm", type=int, default=2)
    p.add_argument("--cutoff", type=int, default=4)

    p = cmd("oracle-dims", "certification series coefficients")
    p.add_argument("--kind", required=True,
                   choices=["partitions", "partitions_min_part_2", "theta_over_eta"])
    p.add_argument("--norm", type=int, default=2)
    p.add_argument("--max-weight", type=int, required=True)
    return ap


def run(argv):
    ap = build_parser()
    args = ap.parse_args(_merge_negative_values(list(argv)))

    if args.command == "canon":
        f = canonicalize(parse(args.expr, args.arity))
        _emit(args, f.format(), f.to_obj())

    elif args.command == "insert":
        f = canonicalize(parse(args.expr, args.arity))
        te = insert_component(f, args.m, args.p)
        _emit(args, str(te), te.to_obj())

    elif args.command == "kernels":
        kt = kernel_table(args.kind, args.m_max, args.n_max)
        if args.kind == "symmetric":
            one = symmetric_expansion("u", args.m_max, args.n_max)
            two = symmetric_expansion("v", args.m_max, args.n_max)
        else:
            one = associative_expansion(1, args.m_max, args.n_max)
            two = associative_expansion(2, args.m_max, args.n_max)
        agree = all(
            one.get(kk, 0) == two.get(kk, 0) == cc for kk, cc in kt.coefficients.items()
        )
        lines = [
            f"{m} {n} {kt.coefficients[(m, n)]}"
            for m in range(args.m_max + 1)
            for n in range(args.n_max + 1)
        ]
        lines.append(f"expansion orders agree: {'yes' if agree else 'NO'}")
        obj = {
            "kind": args.kind,
            "orders_agree": agree,
            "coefficients": {f"{m},{n}": str(c) for (m, n), c in sorted(kt.coefficients.items())},
        }
        _emit(args, "\n".join(lines), obj)
        if not agree:
            return 1

    elif args.command == "filtration":
        subset = _int_list(args.subset)
        if args.basis:
            for flag in ("level", "grading", "pole_budget"):
                if getattr(args, flag) is None:
                    ap.error(f"--basis needs --{flag.replace('_', '-')}")
            monos = filtration_basis(
                args.arity, subset, args.level, args.grading, args.pole_budget
            )
            fns = [LocalFn.from_monomial(args.arity, m) for m in monos]
            _emit(args, "\n".join(f.format() for f in fns) or "(empty)",
                  [f.to_obj() for f in fns])
        else:
            if args.expr is None:
                ap.error("need an expression unless --basis is given")
            f = canonicalize(parse(args.expr, args.arity))
            lvl = filtration_level(f, subset)
            _emit(args, f"level {lvl}", {"level": lvl})

    elif args.command == "connective":
        sorts = _int_list(args.sorts)
        if len(sorts) != args.arity + 1:
            ap.error("--sorts needs the output sort plus one sort per variable")
        f = canonicalize(parse(args.expr, args.arity))
        ans = in_connective(f, args.k, SortSignature(sorts[0], sorts[1:]))
        _emit(args, "true" if ans else "false", {"in_connective": ans})

    elif args.command == "verify-cooperad":
        rep = verify_axioms(args.arity_max, args.samples, args.order, args.seed)
        human = [f"checks {len(rep['checks'])} failures {rep['failures']}"]
        for c in rep["checks"]:
            if c["status"] == "fail":
                human.append(f"FAIL {c['kind']} input={c['input']} component={c['component']}")
        _emit(args, "\n".join(human), rep)
        if rep["failures"]:
            return 1

    elif args.command == "dims":
        pres = _pres_from_args(args)
        dims = graded_dims(pres, args.max_weight)
        _emit(args, " ".join(map(str, dims)), {"dims": dims})

    elif args.command == "ope":
        pres = _pres_from_args(args)
        terms = ope_singular(pres, args.a, args.b)
        human = "\n".join(f"n={n}: {el}" for n, el in terms) or "(regular product)"
        obj = {
            "bound": check_uniform_bound(pres, args.a, args.b),
            "singular": [{"n": n, "result": el.to_obj()} for n, el in terms],
        }
        _emit(args, human, obj)

    elif args.command == "bracket":
        pres = _pres_from_args(args)
        a = parse_element(pres, args.a)
        b = parse_element(pres, args.b)
        out = pres.bracket(a, b, args.n)
        _emit(args, str(out), out.to_obj())

    elif args.command == "radical":
        pres = _pres_from_args(args)
        rs = radical_slice(pres, args.weight)
        human = [f"dimension {rs.dimension}"]
        human += [f"kernel: {el}" for el in rs.kernel]
        obj = {
            "weight": rs.weight,
            "dimension": rs.dimension,
            "basis": [pres.word_str(w) for w in rs.basis],
            "kernel": [el.to_obj() for el in rs.kernel],
        }
        _emit(args, "\n".join(human), obj)

    elif args.command == "npoint":
        pres = _pres_from_args(args)
        gens = [g.strip() for g in args.gens.split(",") if g.strip()]
        bound = args.pole_bound
        if bound is None:
            bound = sum(pres.wt(pres.gen_index(g)) for g in gens)
        f = npoint_vacuum(pres, gens, bound)
        _emit(args, f.format(), f.to_obj())

    elif args.command == "lattice-check":
        pres = load_presentation({"preset": "lattice_rank1", "norm": args.norm})
        rep = lattice_check(pres, args.cutoff)
        human = [f"checks {len(rep['checks'])} failures {rep['failures']}"]
        for c in rep["checks"]:
            mark = "ok " if c["status"] == "ok" else "FAIL"
            human.append(f"{mark} {c['kind']}: {c['detail']}")
        _emit(args, "\n".join(human), rep)
        if rep["failures"]:
            return 1

    elif args.command == "oracle-dims":
        if args.max_weight < 0:
            raise SchemaError("--max-weight must be >= 0")
        kind = args.kind
        if kind == "theta_over_eta":
            if args.norm <= 0 or args.norm % 2:
                raise SchemaError("--norm must be a positive even integer")
            kind = ("theta_over_eta", args.norm)
        dims = fockoracle.series_dims(kind, args.max_weight)
        _emit(args, " ".join(map(str, dims)), {"dims": dims})

    return 0


def main():
    try:
        sys.exit(run(sys.argv[1:]))
    except VacalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
