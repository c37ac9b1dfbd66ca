"""vacalc benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload radical --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the root of a source checkout; vacalc is imported from its `src`.
A run issues the workload's seeded op list once to warm up and collect the
outputs, then repeats it until `--seconds` have passed.  Every output must
pass its independent check (checks.py), match the digest recorded in the
catalog, and repeat byte for byte in every pass.  The last stdout line is
the JSON result; the lines before it are the human-readable report.

With --trace 0 it reports the end-to-end metrics:
  wall_s       time to finish the whole op list: the sum of per-op latencies
  op_ms.p50    median per-op latency (each op: its mean over the timed passes)
  op_ms.p90    90th percentile of the same per-op latencies
  peak_rss_mb  peak resident memory of this process after the timed passes
  setup_s      median time for a fresh interpreter to import vacalc and
               build the CLI parser
Times are scaled to a nominal machine speed (see REF_NOMINAL_S).
With --trace 1 untraced passes alternate with passes that record spans on
every layer boundary (spans.py); it reports per-layer calls, self time and counts,
trace.coverage and trace.overhead, times the ROADMAP baseline rows that
belong to the workload, and writes the spans under .bench_out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402

ROOT = os.getcwd()
SETUP_LAUNCHES = 11
# The machine is shared, and its speed drifts by tens of percent within a
# minute.  So a run also times a fixed slice of pure-Python work (exact
# rationals and dict updates, no vacalc) before every REF_EVERY ops and
# before every set-up launch, and scales each time it reports by
# REF_NOMINAL_S / (mean slice time): times are seconds at the machine speed
# where one slice takes REF_NOMINAL_S.  Op latencies are means over the
# timed passes, so both sides of the ratio average the same interval.  The
# report prints the raw times and the scale as well.
REF_NOMINAL_S = 0.003
REF_EVERY = 10
PROBE_TIMEOUT_S = 60
# ROADMAP item 1: these raise NoLocalMatch at the commit that added the benchmark.
PROBES = [
    ["npoint", "--preset", "virasoro", "--gens", "L,L,L", "--json"],
    ["npoint", "--preset", "virasoro", "--gens", "L,L,L,L", "--json"],
]


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reference_slice():
    """Seconds taken by a fixed amount of pure-Python work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 1200):
        acc += Fraction(i % 97, i % 13 + 1)
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def speed_scale(refs):
    return REF_NOMINAL_S / statistics.fmean(refs)


def measure_setup():
    """Median wall time of fresh interpreters that import vacalc and build
    the parser, with the reference slices timed between the launches."""
    code = "import vacalc.cli; vacalc.cli.build_parser()"
    times, refs = [], []
    for _ in range(SETUP_LAUNCHES):
        refs += [reference_slice() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"setup launch failed: {proc.stderr.strip()}")
    return statistics.median(times), speed_scale(refs)


def run_pass(cli, op_list, refs, tracer=None):
    """Issue every op once, timing a reference slice before every
    REF_EVERY ops into `refs`; returns (latencies, errors, digests).
    `cli.run` is looked up per op, so an installed span wraps it."""
    lat, errs, digests = [], [], []
    for i, argv in enumerate(op_list):
        if i % REF_EVERY == 0:
            refs.append(reference_slice())
        if tracer:
            tracer.op_id = i
        t0 = time.perf_counter()
        err, text = ops.run_op(cli.run, argv)
        lat.append(time.perf_counter() - t0)
        errs.append(err)
        digests.append(ops.output_digest(text))
    return lat, errs, digests


def timed_passes(cli, op_list, seconds, refs):
    """Repeat the op list until `seconds` have passed (at least once)."""
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(run_pass(cli, op_list, refs))
    return passes


def traced_passes(cli, op_list, seconds, tracer):
    """Alternate untraced and traced passes until `seconds` have passed, so
    that drift in machine speed falls on both sides of trace.overhead."""
    plain, traced, layer = [], [], []
    refs = []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(run_pass(cli, op_list, refs))
        tracer.install()
        mark = tracer.mark()
        traced.append(run_pass(cli, op_list, refs, tracer))
        layer.append(tracer.summary(mark))
        tracer.uninstall()
    return plain, traced, layer


def judge(ops_, first, passes):
    """Count failed executions.  An execution fails on an exception or a
    nonzero exit, or when its output differs from the digest the catalog
    recorded.  The first output of each op must also pass its independent
    check; when it does not, every execution of that op counts as failed."""
    failed = 0
    reasons = []
    for i, op in enumerate(ops_):
        err, text = first[i]
        if err is None:
            err = checks.verify(op["argv"], text)
        if err is None and ops.output_digest(text) != op["digest"]:
            err = "output digest differs from the catalog"
        if err is not None:
            failed += 1 + len(passes)
            reasons.append(f"{' '.join(op['argv'])}: {err}")
            continue
        for _, errs, digests in passes:
            if errs[i] is not None or digests[i] != op["digest"]:
                failed += 1
                reasons.append(f"{' '.join(op['argv'])}: {errs[i] or 'output changed'}")
    return failed, reasons


def run_probes():
    """Issue the known-defect probes untimed, each in a fresh vacalc process."""
    known = []
    for argv in PROBES:
        try:
            proc = subprocess.run([sys.executable, "-m", "vacalc"] + argv, env=child_env(),
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            known.append({"argv": argv, "outcome": f"timeout after {PROBE_TIMEOUT_S} s"})
            continue
        if proc.returncode == 0:
            err = checks.verify_virasoro_correlator(argv, proc.stdout)
            if err is None:
                continue
            outcome = f"wrong output: {err}"
        else:
            outcome = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else \
                f"exit code {proc.returncode}"
        known.append({"argv": argv, "outcome": outcome})
    return known


def baseline_rows(workload):
    """ROADMAP item-2 baseline rows of this workload: (label, ROADMAP figure, fn)."""
    from vacalc import cooperad, localfn, vacore

    five = "(z2-z1)^-2*(z3-z2)^-2*(z4-z3)^-2*(z5-z4)^-2*(z5-z1)^-1"

    def tier1():
        if not os.path.isdir(os.path.join(ROOT, "tests")):
            raise RuntimeError("no tests directory")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(proc.stdout.strip().splitlines()[-1])

    rows = {
        "cooperad": [
            ("Tier-1 suite", "11.7 s", tier1),
            ("verify_axioms(5, 30, 4)", "~3 s", lambda: cooperad.verify_axioms(5, 30, 4)),
        ],
        "filtration": [
            ("in_connective, 5-var 47-term function, sorts 2,2,2,2,1", "11.8 s",
             lambda: cooperad.in_connective(localfn.LocalFn.from_text(five, 5), 0,
                                            cooperad.SortSignature(0, [2, 2, 2, 2, 1]))),
            ("one collision_level([1,2]) on that function", "0.39 s",
             lambda: localfn.LocalFn.from_text(five, 5).collision_level([1, 2])),
        ],
        "npoint": [
            ("npoint Heisenberg a x4", "1.15 s",
             lambda: vacore.npoint_vacuum(vacore.preset_heisenberg(1), ["a"] * 4, 4)),
        ],
        "radical": [
            (f"radical_slice Virasoro c=-22/5, w = {w}", fig,
             lambda w=w: vacore.radical_slice(vacore.preset_virasoro("-22/5"), w))
            for w, fig in ((12, "0.69 s"), (14, "2.6 s"), (16, "9.4 s"))
        ] + [
            (f"radical_slice Heisenberg rank 3, w = {w}", fig,
             lambda w=w: vacore.radical_slice(vacore.preset_heisenberg(3), w))
            for w, fig in ((6, "1.2 s"), (7, "3.6 s"))
        ],
    }
    return rows[workload]


def quantile90(values):
    return statistics.quantiles(values, n=10)[8]


def run_workload(args):
    cli = ops.import_cli(ROOT)
    op_list = ops.op_list(ops.load_catalog(), args.workload, args.seed)
    argvs = [op["argv"] for op in op_list]
    print(f"inputs: workload={args.workload} seed={args.seed} ops={len(op_list)} "
          f"argv_digest={ops.argv_digest(op_list)}")

    metrics = {}
    if not args.trace:
        setup_raw, setup_scale = measure_setup()
        metrics["setup_s"] = (setup_raw * setup_scale, "s")

    first = [ops.run_op(cli.run, argv) for argv in argvs]

    if args.trace:
        tracer = spans.Tracer()
        plain, traced, layer = traced_passes(cli, argvs, args.seconds, tracer)
        passes = plain + traced
    else:
        refs = []
        passes = timed_passes(cli, argvs, args.seconds, refs)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    failed, reasons = judge(op_list, first, passes)
    attempted = len(op_list) * (1 + len(passes))
    for line in reasons[:20]:
        print(f"FAILED {line}")

    if args.trace:
        wall_plain = statistics.median(sum(p[0]) for p in plain)
        wall_traced = statistics.median(sum(p[0]) for p in traced)
        for name, unit in spans.metric_names()[:-2]:
            metrics[name] = (statistics.median(s[name] for s in layer), unit)
        self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        metrics["trace.coverage"] = (self_total / wall_traced, "ratio")
        metrics["trace.overhead"] = (wall_traced / wall_plain - 1, "ratio")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        span_path = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(os.path.join(ROOT, span_path))
        print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
              f"{len(tracer.kind)} spans written to {span_path}")
        for label, figure, fn in baseline_rows(args.workload):
            t0 = time.perf_counter()
            try:
                fn()
                took = f"{time.perf_counter() - t0:.3f} s"
            except Exception as exc:  # report the row, keep the run going
                took = f"failed: {type(exc).__name__}: {exc}"
            print(f"baseline: {label:<58} ROADMAP {figure:>7}  now {took}")
    else:
        per_op = [statistics.fmean(p[0][i] for p in passes) * 1000 for i in range(len(op_list))]
        raw = {"wall_s": sum(per_op) / 1000, "op_ms.p50": statistics.median(per_op),
               "op_ms.p90": quantile90(per_op), "setup_s": setup_raw}
        scale = speed_scale(refs)
        for name, unit in (("wall_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms")):
            metrics[name] = (raw[name] * scale, unit)
        print(f"passes: 1 warm-up + {len(passes)} timed; op_ms over {len(per_op)} ops, each "
              f"the mean of {len(passes)} passes; "
              f"{sum(1 for v in per_op if v > raw['op_ms.p90'])} ops beyond p90")
        print(f"speed: reference slice mean {REF_NOMINAL_S / scale * 1000:.3f} ms over "
              f"{len(refs)} slices (set-up: {REF_NOMINAL_S / setup_scale * 1000:.3f} ms), "
              f"nominal {REF_NOMINAL_S * 1000:g} ms")
        print("raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))

    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    if args.workload == "npoint":
        known = run_probes()
        print("known_failures: " + json.dumps(known))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Every workload in its own process, one after another, then one table."""
    rows = []
    for wl in ops.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {wl} failed")
        rows.append((wl, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(f"\n{'workload':<11} {'metric':<40} {'value':>12} unit")
    for wl, res in rows:
        fail = f"{res['failed']}/{res['attempted']}"
        print(f"{wl:<11} {'fail_ratio':<40} {fail:>12}")
        for name, m in res["metrics"].items():
            print(f"{wl:<11} {name:<40} {m['value']:>12.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
