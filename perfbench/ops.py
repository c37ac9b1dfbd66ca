"""Workload definitions and the in-process op runner.

Every op is one `vacalc` command, issued as `vacalc.cli.run(argv)` with
stdout captured, exactly as the command line would run it: the op parses
its own input text and builds every presentation afresh.

Each workload draws its ops from a catalog fixed at the commit that added
the benchmark (`catalog.json`, written by `catalog.py`).  The catalog
records for every candidate op the output digest at that commit and its
work as a count of Python calls.  A seed draws a fixed number of ops from
each work band, so every seed gets the same mix of light and heavy ops and
the run-to-run spread stays small, while the ops themselves differ.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG = os.path.join(HERE, "catalog.json")

# workload -> list of bands (upper bound on recorded calls, strata, draws).
# A band holds the catalog ops whose call count is at most its bound and
# above the previous band's bound.  Sorted by calls, it is cut into `strata`
# consecutive groups of near-equal size, and each run draws `draws` ops from
# every group (without replacement when the group is big enough).  Narrow
# groups keep the sum and the percentiles of the work nearly seed-independent.
BANDS = {
    "cooperad": [(300_000, 100, 1), (1_500_000, 6, 1)],
    "filtration": [(600_000, 101, 1)],
    "radical": [(80_000, 26, 3), (1_200_000, 24, 1), (3_000_000, 1, 1)],
    "npoint": [(200_000, 50, 2), (4_300_000, 1, 2)],
}

WORKLOADS = list(BANDS)


def import_cli(root):
    """Import `vacalc.cli` from `<root>/src`, never from an installed copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "vacalc", "cli.py")):
        raise SystemExit(f"no vacalc sources under {src}")
    sys.path.insert(0, src)
    from vacalc import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported vacalc from {cli.__file__}, not {src}")
    return cli


def load_catalog(path=CATALOG):
    with open(path) as fh:
        return json.load(fh)


def op_list(catalog, workload, seed):
    """The seeded op list of one workload: catalog entries in run order."""
    entries = sorted(catalog[workload], key=lambda e: (e["calls"], e["argv"]))
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    lower = -1
    for upper, strata, draws in BANDS[workload]:
        band = [e for e in entries if lower < e["calls"] <= upper]
        lower = upper
        if len(band) < strata:
            raise ValueError(f"{workload}: {len(band)} ops up to {upper} calls, need {strata}")
        for s in range(strata):
            group = band[s * len(band) // strata:(s + 1) * len(band) // strata]
            if draws <= len(group):
                ops += rng.sample(group, draws)
            else:
                ops += [rng.choice(group) for _ in range(draws)]
    rng.shuffle(ops)
    return ops


def argv_digest(ops):
    """Digest of an op list's argv lists, to show two runs used the same inputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op["argv"]).encode())
    return h.hexdigest()[:16]


def output_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_op(run, argv):
    """Run one CLI op in-process.  Returns (error or None, stdout text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run(list(argv))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return f"{type(exc).__name__}: {exc}", buf.getvalue()
    if code != 0:
        return f"exit code {code}", buf.getvalue()
    return None, buf.getvalue()
