"""Spans around vacalc's layer boundaries, installed from outside the program.

Each boundary is a public function or method of one vacalc module.  A
function is rebound in every vacalc module namespace that holds it (for
example `cli` imports `radical_slice` by name), so no call bypasses its
span; a method is rebound on its class.  Each span records its boundary,
start, end, parent span and op id.  Spans stay in memory until `write`.
"""

import gzip
import json
import sys
import time
from array import array

# name, exact counts taken from (args, result)
BOUNDARIES = [
    ("cli.run", {}),
    ("localfn.canonicalize", {"terms_out": lambda a, r: len(r.terms)}),
    ("localfn.LocalFn.permute", {}),
    ("localfn.LocalFn.collision_level", {}),
    ("localfn.basis_monomials", {}),
    ("polyq.mul", {"term_pairs": lambda a, r: len(a[0]) * len(a[1])}),
    ("polyq.add", {}),
    ("cooperad.insert_component", {"terms_out": lambda a, r: len(r.terms)}),
    ("cooperad.insert_block", {}),
    ("cooperad.TensorElement", {}),
    ("cooperad.verify_axioms", {"checks": lambda a, r: len(r["checks"])}),
    ("cooperad.in_connective", {}),
    ("vacore.load_presentation", {}),
    ("vacore.spanning_basis", {"words": lambda a, r: len(r)}),
    ("vacore.Presentation.prepend_mode", {}),
    ("vacore.Presentation.normal_form", {}),
    ("vacore.radical_slice", {"basis_words": lambda a, r: len(r.basis),
                              "kernel_dim": lambda a, r: r.dimension}),
    ("vacore.npoint_vacuum", {"terms_out": lambda a, r: len(r.terms)}),
]

NAMES = [name for name, _ in BOUNDARIES]


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, counts in BOUNDARIES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
        out += [(f"{name}.{c}", "count") for c in counts]
    return out + [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]


class Tracer:
    """Span log plus exact counts for the boundaries in BOUNDARIES."""

    def __init__(self):
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts = {}
        self.stack = []
        self.op_id = -1
        self.originals = []

    def _wrap(self, idx, fn, counts):
        kind, start, end, parent, op = self.kind, self.start, self.end, self.parent, self.op
        stack, clock = self.stack, time.perf_counter
        tallies = [(self.counts.setdefault(f"{NAMES[idx]}.{c}", [0]), get)
                   for c, get in counts.items()]
        tracer = self

        def span(*args, **kwargs):
            sid = len(kind)
            kind.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            for cell, get in tallies:
                cell[0] += get(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every boundary; vacalc must already be imported."""
        for idx, (name, counts) in enumerate(BOUNDARIES):
            module_name, *path = name.split(".")
            owner = sys.modules[f"vacalc.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if isinstance(getattr(owner, attr), type):  # a constructor
                owner, attr = getattr(owner, attr), "__init__"
            fn = getattr(owner, attr)
            wrapper = self._wrap(idx, fn, counts)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [mod for key, mod in list(sys.modules.items())
                           if key.split(".")[0] == "vacalc" and mod is not None]
            for target in targets:
                for key, val in list(vars(target).items()):
                    if val is fn:
                        self.originals.append((target, key, fn))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, fn in reversed(self.originals):
            setattr(target, key, fn)
        self.originals = []

    def mark(self):
        """Position in the span log, to aggregate one pass at a time."""
        return len(self.kind), {k: v[0] for k, v in self.counts.items()}

    def summary(self, since):
        """calls, self seconds and counts per boundary for spans after `since`."""
        first, counts_before = since
        n = len(self.kind)
        dur = [self.end[i] - self.start[i] for i in range(first, n)]
        child = [0.0] * (n - first)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p - first] += dur[i - first]
        out = {f"{name}.{m}": 0 for name in NAMES for m in ("calls", "self_s")}
        for i in range(first, n):
            name = NAMES[self.kind[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur[i - first] - child[i - first]
        for key, cell in self.counts.items():
            out[key] = cell[0] - counts_before.get(key, 0)
        return out

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.kind)):
                fh.write(json.dumps([NAMES[self.kind[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")
