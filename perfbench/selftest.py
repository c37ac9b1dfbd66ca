"""Tests of the benchmark itself (not of vacalc).

    python3 perfbench/selftest.py         # from the repository root

They show that a corrupted output is counted as failed, that the closed
forms behind the checks are right on known values, that op lists depend
only on the seed, and that the spans see calls made through every import.
"""

import json
import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CLI = ops.import_cli(os.path.dirname(ops.HERE))
CATALOG = ops.load_catalog()


def first_op(command):
    for entries in CATALOG.values():
        for op in entries:
            if op["argv"][0] == command:
                return op
    raise LookupError(command)


def output(op):
    err, text = ops.run_op(CLI.run, op["argv"])
    assert err is None, err
    return text


def rewrite(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True) + "\n"


def bump_coeff(term):
    term["coeff"] = str(Fraction(term["coeff"]) + 1)


CORRUPTIONS = {
    "filtration": lambda o: o.update(level=o["level"] + 1),
    "connective": lambda o: o.update(in_connective=not o["in_connective"]),
    "insert": lambda o: bump_coeff(o["terms"][0]),
    "verify-cooperad": lambda o: o["checks"][0].update(status="fail"),
    "radical": lambda o: o.update(dimension=o["dimension"] + 1, kernel=o["kernel"] + [{}]),
    "npoint": lambda o: o["terms"].append(
        {"coeff": "1", "factors": [{"kind": "pure", "exp": 0}] * o["arity"]}),
}


class CorruptedOutputs(unittest.TestCase):
    def test_each_command_checks_its_output(self):
        for command, corrupt in CORRUPTIONS.items():
            with self.subTest(command=command):
                op = first_op(command)
                text = output(op)
                self.assertIsNone(checks.verify(op["argv"], text))
                self.assertIsNotNone(checks.verify(op["argv"], rewrite(text, corrupt)))

    def test_judge_counts_corrupted_and_changed_outputs(self):
        op = first_op("filtration")
        text = output(op)
        good_pass = ([0.0], [None], [op["digest"]])
        self.assertEqual(run.judge([op], [(None, text)], [good_pass])[0], 0)
        bad = rewrite(text, CORRUPTIONS["filtration"])
        self.assertEqual(run.judge([op], [(None, bad)], [good_pass])[0], 2)
        changed_pass = ([0.0], [None], [ops.output_digest(bad)])
        self.assertEqual(run.judge([op], [(None, text)], [changed_pass])[0], 1)
        self.assertEqual(run.judge([op], [("ValueError: x", "")], [])[0], 1)


class ClosedForms(unittest.TestCase):
    def test_lee_yang_is_rogers_ramanujan(self):
        w_max = 20
        rr = [1] + [0] * w_max
        for n in range(1, w_max + 1):
            if n % 5 in (2, 3):
                for w in range(n, w_max + 1):
                    rr[w] += rr[w - n]
        self.assertEqual(checks.virasoro_simple_dims("-22/5", w_max), rr)

    def test_non_minimal_charge_is_universal(self):
        self.assertIsNone(checks.minimal_model(1))
        self.assertEqual(checks.minimal_model("1/2"), (3, 4))
        self.assertEqual(checks.virasoro_simple_dims(1, 6), [1, 0, 1, 1, 2, 2, 4])

    def test_wick_sum(self):
        z = [Fraction(v) for v in (1, 3, 7, 15)]
        want = sum(Fraction(1, (a * b) ** 2) for a, b in ((2, 8), (6, 12), (14, 4)))
        self.assertEqual(checks.wick_value(["a"] * 4, z), want)
        self.assertEqual(checks.wick_value(["a1", "a2", "a1"], z[:3]), 0)

    def test_insert_reference_on_readme_example(self):
        # insert --arity 2 --m 1 --p 2 "(z2-z1)^-1"  ->  -1 * [(z2-z1)^-2] (x) [t1]
        pure, poles = checks.parse_product("(z2-z1)^-1")
        z1, w, t1 = Fraction(2), Fraction(5), Fraction(7, 3)
        value = checks.insert_component_value(2, 1, 2, pure, poles, [z1], w, [t1])
        self.assertEqual(value, -(w - z1) ** -2 * t1)


class OpLists(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for wl in ops.WORKLOADS:
            a, b = ops.op_list(CATALOG, wl, 1), ops.op_list(CATALOG, wl, 1)
            self.assertEqual(ops.argv_digest(a), ops.argv_digest(b))
            self.assertNotEqual(ops.argv_digest(a), ops.argv_digest(ops.op_list(CATALOG, wl, 2)))
            self.assertGreaterEqual(len(a), 100)


class Spans(unittest.TestCase):
    def test_spans_see_names_imported_elsewhere(self):
        from vacalc import cli, vacore

        original = vacore.radical_slice
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.radical_slice, original)
            mark = tracer.mark()
            ops.run_op(cli.run, ["radical", "--preset", "virasoro", "--c", "-22/5",
                                 "--weight", "4", "--json"])
            got = tracer.summary(mark)
        finally:
            tracer.uninstall()
        self.assertIs(cli.radical_slice, original)
        self.assertEqual(got["cli.run.calls"], 1)
        self.assertEqual(got["vacore.radical_slice.calls"], 1)
        self.assertEqual(got["vacore.radical_slice.kernel_dim"], 1)
        self.assertGreater(got["vacore.Presentation.prepend_mode.calls"], 0)
        self.assertLessEqual(sum(v for k, v in got.items() if k.endswith(".self_s")),
                             tracer.end[0] - tracer.start[0] + 1e-9)

    def test_traced_passes_wrap_the_cli_entry(self):
        argv = first_op("filtration")["argv"]
        original = CLI.run
        tracer = spans.Tracer()
        plain, traced, layer = run.traced_passes(CLI, [argv], 0, tracer)
        self.assertEqual((len(plain), len(traced)), (1, 1))
        self.assertEqual(layer[0]["cli.run.calls"], 1)
        self.assertEqual(layer[0]["localfn.canonicalize.calls"], 1)
        self.assertEqual(set(tracer.op), {0})
        self.assertIs(CLI.run, original)


if __name__ == "__main__":
    unittest.main()
