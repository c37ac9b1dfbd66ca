"""Write catalog.json: the candidate ops of every workload.

    python3 perfbench/catalog.py            # from the repository root

Candidates come from a fixed generator seed, not from a run's seed.  Each
one is run once in-process; the catalog keeps its argv, its output digest
and its work as the number of Python calls cProfile counts.  An op whose
output fails its independent check stops the build.  The digests are the
outputs of the commit that built the catalog; rebuilding at a later commit
would record that commit's outputs instead, so the catalog is data to keep,
not to regenerate.
"""

import cProfile
import json
import os
import pstats
import random
import signal
import sys
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import ops  # noqa: E402

ROOT = os.path.dirname(ops.HERE)
MINIMAL_C = ["-22/5", "1/2", "7/10", "-68/7", "1"]
VIRASORO_2PT_C = MINIMAL_C + ["25/2", "-2", "3/7", "26", "-11/3", "100", "1/3"]
MAX_TERMS = 40
MAX_SECONDS = 0.5  # candidates slower than this unprofiled are skipped


class TooSlow(BaseException):
    """Raised from a timer signal; not an Exception, so run_op lets it through."""


def _too_slow(signum, frame):
    raise TooSlow


def random_product(rng):
    """A product z_a^l * prod (z_j - z_i)^-k_ij of arity 3..5 with 1 <= k <= 2."""
    n = rng.choice([3, 4, 5])
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    chosen = sorted(rng.sample(pairs, rng.randint(n - 1, min(len(pairs), n + 1))))
    factors = []
    if rng.random() < 0.5:
        factors.append(f"z{rng.randint(1, n)}^{rng.randint(1, 2)}")
    factors += [f"(z{j}-z{i})^-{rng.randint(1, 2)}" for i, j in chosen]
    return n, "*".join(factors)


def connective_sorts(rng, n, expr):
    """Sorts near the pole degrees, so some verdicts are true and some false."""
    pure, poles = checks.parse_product(expr)
    sorts = []
    for v in range(1, n + 1):
        degree = sum(k for pair, k in poles.items() if v in pair)
        sorts.append(max(0, -(-degree // 2) + rng.choice([-1, 0, 0, 1])))
    out = sum(sorts) - checks.product_grading(pure, poles)
    return [out] + sorts


def candidates(rng):
    """(workload, argv) pairs; every argv ends with --json."""
    out = []
    for c, w in product(MINIMAL_C, range(1, 13)):
        out.append(("radical", ["radical", "--preset", "virasoro", "--c", c, "--weight", str(w)]))
    for rank, w_max in ((1, 8), (2, 6), (3, 5)):
        for w in range(1, w_max + 1):
            out.append(("radical", ["radical", "--preset", "heisenberg", "--rank", str(rank),
                                    "--weight", str(w)]))

    for rank in (1, 2, 3):
        names = ["a"] if rank == 1 else [f"a{i}" for i in range(1, rank + 1)]
        for arity in (2, 3, 4):
            lists = [list(t) for t in product(names, repeat=arity)]
            if arity == 4 and len(lists) > 20:
                lists = rng.sample(lists, 20)
            for gens in lists:
                out.append(("npoint", ["npoint", "--preset", "heisenberg", "--rank", str(rank),
                                       "--gens", ",".join(gens)]))
    for c in VIRASORO_2PT_C:
        out.append(("npoint", ["npoint", "--preset", "virasoro", "--c", c, "--gens", "L,L"]))

    for _ in range(300):
        n, expr = random_product(rng)
        subset = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
        out.append(("filtration", ["filtration", "--arity", str(n), "--subset",
                                   ",".join(map(str, subset)), expr]))
        sorts = connective_sorts(rng, n, expr)
        out.append(("filtration", ["connective", "--arity", str(n), "--k",
                                   str(rng.choice([0, 0, 1])), "--sorts",
                                   ",".join(map(str, sorts)), expr]))

    for _ in range(100):
        out.append(("cooperad", ["verify-cooperad", "--arity-max", str(rng.choice([3, 4, 5])),
                                 "--samples", str(rng.choice([2, 3])),
                                 "--order", str(rng.choice([2, 3, 4])),
                                 "--seed", str(rng.randrange(10**6))]))
    for _ in range(300):
        n, expr = random_product(rng)
        pure, poles = checks.parse_product(expr)
        g = checks.product_grading(pure, poles)
        out.append(("cooperad", ["insert", "--arity", str(n), "--m", str(rng.randrange(n)),
                                 "--p", str(g + rng.randint(-2, 3)), expr]))
    return [(wl, argv + ["--json"]) for wl, argv in out]


def fast_enough(cli, argv):
    signal.setitimer(signal.ITIMER_REAL, MAX_SECONDS)
    try:
        ops.run_op(cli.run, argv)
    except TooSlow:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return True


def measure(cli, argv):
    prof = cProfile.Profile()
    prof.enable()
    err, text = ops.run_op(cli.run, argv)
    prof.disable()
    return err, text, pstats.Stats(prof).total_calls


def main():
    cli = ops.import_cli(ROOT)
    from vacalc.localfn import canonicalize, parse

    signal.signal(signal.SIGALRM, _too_slow)
    catalog = {wl: [] for wl in ops.WORKLOADS}
    seen = set()
    for wl, argv in candidates(random.Random(20100601)):
        if json.dumps(argv) in seen:
            continue
        seen.add(json.dumps(argv))
        if argv[0] in ("filtration", "connective", "insert"):
            n = int(checks.flag(argv, "--arity"))
            if len(canonicalize(parse(checks.expression(argv), n)).terms) > MAX_TERMS:
                continue
            if not fast_enough(cli, argv):
                continue
        err, text, calls = measure(cli, argv)
        if err is None and argv[0] == "insert" and not json.loads(text)["terms"]:
            continue
        if err is None:
            err = checks.verify(argv, text)
        if err is not None:
            raise SystemExit(f"candidate {' '.join(argv)} failed: {err}")
        if calls > ops.BANDS[wl][-1][0]:
            continue
        catalog[wl].append({"argv": argv, "calls": calls, "digest": ops.output_digest(text)})
    with open(ops.CATALOG, "w") as fh:
        json.dump(catalog, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for wl, entries in catalog.items():
        print(wl, len(entries), "ops")


if __name__ == "__main__":
    main()
