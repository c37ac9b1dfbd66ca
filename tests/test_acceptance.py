"""Acceptance suite: every guarantee checked exactly (tolerance 0 over the
rationals), one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from vacalc import fockoracle as F
from vacalc.cooperad import (
    SortSignature,
    associative_expansion,
    in_connective,
    insertion_closure_failures,
    kernel_table,
    symmetric_expansion,
    verify_axioms,
)
from vacalc.fockoracle import lattice_check
from vacalc.localfn import LocalFn, basis_monomials, canonicalize, mono_pole_total
from vacalc.numutil import gbinom
from vacalc.vacore import (
    graded_dims,
    npoint_vacuum,
    preset_heisenberg,
    preset_virasoro,
    radical_slice,
    radical_slices,
    spanning_basis,
)

from reference import eval_raw
from test_localfn import distinct_points, random_raw_expr


def report(num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status} ({elapsed:6.2f}s < {budget}s) {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, f"criterion {num}: {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_canonical_soundness():
    t0 = time.time()
    rng = random.Random(101)
    bad = 0
    for _ in range(200):
        arity = rng.randint(1, 4)
        expr = random_raw_expr(rng, arity)
        f = canonicalize(expr)
        for _ in range(20):
            pts = distinct_points(rng, arity)
            if eval_raw(expr, pts) != f.evaluate(pts):
                bad += 1
    report(1, "canonical-form soundness (200 exprs x 20 points)",
           bad == 0, time.time() - t0, 10, f"{bad} mismatches")


def test_criterion_02_expansion_kernels():
    t0 = time.time()
    sym = kernel_table("symmetric", 8, 8)
    s1 = symmetric_expansion("u", 8, 8)
    s2 = symmetric_expansion("v", 8, 8)
    assoc = kernel_table("associative", 8, 8)
    a1 = associative_expansion(1, 8, 8)
    a2 = associative_expansion(2, 8, 8)
    ok = all(s1[k] == s2[k] == v for k, v in sym.items()) and all(
        a1[k] == a2[k] == v for k, v in assoc.items()
    )
    report(2, "expansion-kernel identities (m, n <= 8)", ok, time.time() - t0, 1)


def test_criterion_03_cooperad_axioms():
    t0 = time.time()
    rep = verify_axioms(arity_cap=4, samples=50, truncation=4, seed=303)
    report(3, "co-operad axioms (50 samples, |p| <= 4)",
           rep["failures"] == 0, time.time() - t0, 60,
           f"{len(rep['checks'])} checks, {rep['failures']} failures")


def test_criterion_04_connectivity_closure():
    t0 = time.time()
    rng = random.Random(404)
    failures = []
    done = 0
    while done < 50:
        n = rng.randint(2, 4)
        g = rng.randint(0, 3)
        monos = basis_monomials(n, g, max(0, g) + rng.randint(0, 1))
        if not monos:
            continue
        mono = rng.choice(monos)
        f = LocalFn.from_monomial(n, mono)
        total = mono_pole_total(mono)
        sorts = tuple(total + rng.randint(0, 1) for _ in range(n))
        sig = SortSignature(sum(sorts) - g, sorts)
        if not in_connective(f, 0, sig):
            failures.append(f"sample not in the connective piece: {f}")
            break
        m = rng.randint(0, n - 1)
        failures.extend(insertion_closure_failures(f, 0, sig, m, 4))
        done += 1
    report(4, "connectivity closure under insertion (50 samples)",
           not failures, time.time() - t0, 60, "; ".join(failures[:3]))


def test_criterion_05_graded_dimensions():
    t0 = time.time()
    hei = preset_heisenberg()
    vir = preset_virasoro(Fraction(1, 2))
    ok = (
        graded_dims(hei, 10) == F.series_dims("partitions", 10)
        == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    ) and (
        graded_dims(vir, 8) == F.series_dims("partitions_min_part_2", 8)
        == [1, 0, 1, 1, 2, 2, 4, 4, 7]
    )
    report(5, "graded dimensions vs partition series", ok, time.time() - t0, 5)


def _heisenberg_realize(el):
    out = {}
    for modes, c in el.terms.items():
        state = (tuple(sorted((-n for _, n in modes), reverse=True)), 0)
        out[state] = out.get(state, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _virasoro_realize(el):
    out = {}
    for modes, c in el.terms.items():
        for s, cc in F.virasoro_word([n for _, n in modes]).items():
            out[s] = out.get(s, Fraction(0)) + c * cc
    return {k: v for k, v in out.items() if v}


def test_criterion_06_oracle_equivalence():
    """Every mode word of weight <= 6, with length <= 4 and modes in
    [-6, 6], reduces to a normal form whose realization equals the direct
    oscillator computation, for the rank-1 current preset and for the
    central-charge-1 stress-tensor preset."""
    t0 = time.time()
    hei = preset_heisenberg()
    vir = preset_virasoro(1)
    mode_range = range(-6, 7)
    bad = []
    checked = 0
    for pres, realize, direct, wt in (
        (hei, _heisenberg_realize, F.heisenberg_word, 1),
        (vir, _virasoro_realize, F.virasoro_word, 2),
    ):
        for length in range(0, 5):
            for modes in itertools.product(mode_range, repeat=length):
                weight = sum(wt - n - 1 for n in modes)
                if weight > 6:
                    continue
                checked += 1
                word = [(0, n) for n in modes]
                nf = pres.word_element(word)
                if realize(nf) != direct(modes):
                    bad.append((pres.label, modes))
    report(6, "oracle equivalence on all words of weight <= 6",
           not bad, time.time() - t0, 120,
           f"{checked} words checked" + (f"; first failure {bad[0]}" if bad else ""))


def _rand_homogeneous(P, rng, wmax=4):
    w = rng.randint(1, wmax)
    basis = spanning_basis(P, w)
    while not basis:
        w = rng.randint(1, wmax)
        basis = spanning_basis(P, w)
    picks = rng.sample(basis, min(len(basis), rng.randint(1, 2)))
    return P.element({b: Fraction(rng.choice([-2, -1, 1, 2, 3])) for b in picks})


def test_criterion_07_bracket_calculus():
    t0 = time.time()
    rng = random.Random(707)
    errors = []
    for P in (preset_heisenberg(), preset_virasoro(1)):
        for _ in range(100):
            a = _rand_homogeneous(P, rng)
            b = _rand_homogeneous(P, rng)
            c = _rand_homogeneous(P, rng)
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            wa, wb = a.weight(), b.weight()
            lhs = P.bracket(a, P.bracket(b, c, n), m) - P.bracket(
                b, P.bracket(a, c, m), n
            )
            rhs = P.zero()
            for i in range(0, wa + wb + 1):
                co = gbinom(m, i)
                if co:
                    rhs = rhs + P.bracket(P.bracket(a, b, i), c, m + n - i).scale(co)
            if not (lhs - rhs).is_zero():
                errors.append(("jacobi", P.label, m, n))
            lhs = P.bracket(b, a, m)
            rhs = P.zero()
            for j in range(0, wa + wb - m + 1):
                term = P.bracket(a, b, j + m)
                if term.is_zero():
                    continue
                for _ in range(j):
                    term = P.derivative(term)
                rhs = rhs + term.scale(
                    Fraction((-1) ** ((m + 1) % 2) * (-1) ** (j % 2), factorial(j))
                )
            if not (lhs - rhs).is_zero():
                errors.append(("skew", P.label, m))
            if not (
                P.bracket(P.derivative(a), b, n) - P.bracket(a, b, n - 1).scale(-n)
            ).is_zero():
                errors.append(("derivative-left", P.label, n))
            if not (
                P.derivative(P.bracket(a, b, n))
                - P.bracket(P.derivative(a), b, n)
                - P.bracket(a, P.derivative(b), n)
            ).is_zero():
                errors.append(("leibniz", P.label, n))
    report(7, "bracket calculus (jacobi, skew, derivative rules; 100 triples x 2 presets)",
           not errors, time.time() - t0, 120, str(errors[:2]))


def test_criterion_08_lee_yang_null_vector():
    t0 = time.time()
    ly = preset_virasoro(Fraction(-22, 5))
    rs = radical_slice(ly, 4)
    ok = rs.dimension == 1
    detail = f"dim {rs.dimension}"
    if ok:
        (kernel,) = rs.kernel
        lead = kernel.terms[max(kernel.terms)]
        normalized = kernel.scale(1 / lead)
        want = ly.word_element([(0, -1), (0, -1)]) - ly.word_element([(0, -3)]).scale(
            Fraction(3, 5)
        )
        ok = normalized == want
        detail += f"; kernel {normalized}"
    generic = radical_slice(preset_virasoro(1), 4)
    ok = ok and generic.dimension == 0
    detail += f"; dim at c=1: {generic.dimension}"
    report(8, "null vector at central charge -22/5, weight 4",
           ok, time.time() - t0, 10, detail)


def test_criterion_09_correlators():
    t0 = time.time()
    hei = preset_heisenberg()
    vir = preset_virasoro(Fraction(1, 2))
    lf = LocalFn.from_text
    ok = True
    details = []
    cases = [
        (hei, ["a", "a"], 2, lf("(z2-z1)^-2", 2)),
        (vir, ["L", "L"], 4, lf("(z2-z1)^-4", 2).scale(Fraction(1, 4))),
        (
            hei,
            ["a", "a", "a", "a"],
            4,
            lf(
                "(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2 + (z4-z1)^-2*(z3-z2)^-2",
                4,
            ),
        ),
    ]
    for pres, gens, bound, want in cases:
        got = npoint_vacuum(pres, gens, bound)
        sorts = tuple(pres.wt(pres.gen_index(g)) for g in gens)
        good = got == want and in_connective(got, 0, SortSignature(0, sorts))
        ok = ok and good
        if not good:
            details.append(f"{gens}: got {got}")
    report(9, "vacuum correlators match and pass connectivity",
           ok, time.time() - t0, 30, "; ".join(details))


def test_criterion_10_lattice():
    t0 = time.time()
    rep = lattice_check(4)
    dims_ok = F.lattice_graded_dims(3) == [1, 3, 4, 7]
    ok = rep["failures"] == 0 and dims_ok
    report(10, "rank-1 lattice: graded dims and presentation relations",
           ok, time.time() - t0, 60,
           f"{len(rep['checks'])} relation checks, dims {F.lattice_graded_dims(3)}")


def _partition_counts(w_max, min_part=1, rank=1):
    """Coefficients of prod_{n >= min_part} (1 - q^n)^-rank up to q^w_max."""
    counts = [1] + [0] * w_max
    for n in range(min_part, w_max + 1):
        for _ in range(rank):
            for w in range(n, w_max + 1):
                counts[w] += counts[w - n]
    return counts


def _minimal_vacuum_character(p, pp, w_max):
    """Rocha-Caridi vacuum character of the (p, p') minimal model:
    sum_k (q^A(k) - q^B(k)) / prod_n (1 - q^n) with
    4 p p' A(k) = (2 p p' k + p' - p)^2 - (p' - p)^2 and
    4 p p' B(k) = (2 p p' k + p' + p)^2 - (p' - p)^2."""
    numerator = [0] * (w_max + 1)
    for k in range(-w_max - 1, w_max + 2):
        for sign, r in ((1, pp - p), (-1, pp + p)):
            exp, rem = divmod((2 * p * pp * k + r) ** 2 - (pp - p) ** 2, 4 * p * pp)
            assert rem == 0
            if exp <= w_max:
                numerator[exp] += sign
    parts = _partition_counts(w_max)
    return [sum(numerator[i] * parts[w - i] for i in range(w + 1)) for w in range(w_max + 1)]


def test_criterion_11_radical_closed_forms():
    """Radical dimension = spanning count - simple vacuum character: the
    Rocha-Caridi character at four minimal-model central charges, and the
    full partition count (radical 0) at c = 1 and for Heisenberg ranks 1-3."""
    t0 = time.time()
    cases = []
    for p, pp in ((2, 5), (3, 4), (2, 7), (4, 5)):
        c = 1 - Fraction(6 * (pp - p) ** 2, p * pp)
        cases.append((f"c={c}", preset_virasoro(c), _minimal_vacuum_character(p, pp, 14)))
    cases.append(("c=1", preset_virasoro(1), _partition_counts(14, min_part=2)))
    for rank in (1, 2, 3):
        cases.append((f"heisenberg rank {rank}", preset_heisenberg(rank),
                      _partition_counts(6, rank=rank)))
    bad = []
    dims = {}
    for name, pres, simple in cases:
        slices = radical_slices(pres, len(simple) - 1)
        dims[name] = [rs.dimension for rs in slices]
        want = [len(rs.basis) - q for rs, q in zip(slices, simple)]
        if dims[name] != want:
            bad.append(f"{name}: {dims[name]} != {want}")
    lee_yang = dims["c=-22/5"][4:]
    ok = not bad and lee_yang == [1, 1, 2, 2, 4, 5, 8, 10, 15, 18, 26]
    report(11, "radical dims = spanning count - simple vacuum character (w <= 14)",
           ok, time.time() - t0, 60, "; ".join(bad[:2]) or f"Lee-Yang w=4..14: {lee_yang}")
