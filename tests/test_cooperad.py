"""Tests for insertions, co-compositions, kernels, and the filtration."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vacalc import cooperad, polyq
from vacalc.cooperad import (
    SortSignature,
    TensorElement,
    associative_expansion,
    cocompose_general,
    filtration_basis,
    in_connective,
    insert_block,
    insert_component,
    insert_components,
    insertion_closure_failures,
    kernel_table,
    symmetric_expansion,
    verify_axioms,
)
from vacalc.errors import BadPartition, BadSplit, NotHomogeneous, SchemaError
from vacalc.localfn import (
    LocalFn,
    MonomialBasis,
    _collision_level_exact,
    basis_monomials,
    canonicalize,
    mono_grading,
    mono_pole_total,
    parse,
)

from reference import expand_tensor, fn_obj, regroup, regroup_tensor, tensor_obj, tensor_str
from test_vacore import _rank


def lf(text, arity):
    return LocalFn.from_text(text, arity)


def te(outer_arity, inner_arity, *terms):
    return TensorElement(outer_arity, inner_arity, expand_tensor(terms))


# ---------------------------------------------------------------------------
# insert_component
# ---------------------------------------------------------------------------

def test_insert_inverse_difference_components():
    f = lf("(z2-z1)^-1", 2)
    assert insert_component(f, 1, 1) == te(2, 1, (lf("(z2-z1)^-1", 2), lf("1", 1), 1))
    assert insert_component(f, 1, 2) == te(2, 1, (lf("(z2-z1)^-2", 2), lf("z1", 1), -1))
    assert insert_component(f, 1, 0).is_zero()


def test_insert_requires_homogeneous_and_valid_split():
    f = lf("z1 + (z2-z1)^-1", 2)
    with pytest.raises(NotHomogeneous):
        insert_component(f, 1, 1)
    with pytest.raises(BadSplit):
        insert_component(lf("z1", 2), 2, 0)
    with pytest.raises(BadSplit):
        insert_component(lf("z1", 2), -1, 0)


def test_insert_component_bidegrees_are_homogeneous_and_additive():
    f = lf("z1*(z3-z1)^-2*(z3-z2)^-1", 3)
    g = f.grading()
    seen_any = False
    for p in range(-4, 7):
        comp = insert_component(f, 1, p)
        for outer, inner, _ in comp.grouped():
            seen_any = True
            assert outer.grading() == p
            assert inner.grading() == g - p
    assert seen_any


def test_insert_representation_independence():
    # two different raw expressions for the same function
    e1 = parse("(z3-z1)^-1*(z3-z2)^-1", 3)
    e2 = parse("(z2-z1)^-1*(z3-z2)^-1 - (z2-z1)^-1*(z3-z1)^-1", 3)
    f1, f2 = canonicalize(e1), canonicalize(e2)
    assert f1 == f2
    for p in range(-3, 5):
        assert insert_component(f1, 1, p) == insert_component(f2, 1, p)


def test_insert_finiteness_is_structural():
    comp = insert_component(lf("(z2-z1)^-3", 2), 1, 6)
    assert len(comp.grouped()) < 10
    for outer, inner, _ in comp.grouped():
        assert len(outer.terms) < 50 and len(inner.terms) < 50


# ---------------------------------------------------------------------------
# cocompose_general
# ---------------------------------------------------------------------------

def test_cocompose_trivial_blocks():
    f = lf("(z2-z1)^-1", 2)
    got = cocompose_general(f, (1, 1), (1, 0, 0))
    assert got == [(lf("(z2-z1)^-1", 2), lf("1", 1), lf("1", 1), Fraction(1))]
    one = lf("1", 2)
    assert cocompose_general(one, (1, 1), (0, 0, 0)) == [
        (lf("1", 2), lf("1", 1), lf("1", 1), Fraction(1))
    ]


def test_cocompose_rejects_bad_partitions():
    f = lf("(z2-z1)^-2", 2)
    with pytest.raises(BadPartition):
        cocompose_general(f, (2, 0), (2, 0, 0))
    with pytest.raises(BadPartition):
        cocompose_general(f, (1, 1, 1), (2, 0, 0, 0))
    with pytest.raises(BadPartition):
        cocompose_general(f, (1, 1), (1, 0))
    with pytest.raises(BadPartition):
        cocompose_general(f, (1, 1), (1, 0, 0))  # degrees sum to 1, grading is 2


def _random_homogeneous(rng, n, monos, multi):
    """One basis monomial, or a sum of up to three with unequal coefficients."""
    if not multi:
        return LocalFn.from_monomial(n, rng.choice(monos))
    picks = rng.sample(monos, min(3, len(monos)))
    coeffs = (1, -2, Fraction(1, 3))
    return sum((LocalFn.from_monomial(n, m, c) for m, c in zip(picks, coeffs)), LocalFn.zero(n))


def test_cocompose_matches_iterated_insertion():
    # cocompose_general inserts the last block first; the reference inserts
    # the first block first, so agreement is commutativity of insertions
    # into disjoint blocks
    rng = random.Random(12)
    nonzero = {False: 0, True: 0}
    for trial in range(12):
        n = rng.randint(2, 4)
        monos = []
        while not monos:
            g = rng.randint(-1, 2)
            monos = basis_monomials(n, g, max(0, g) + 1)
        multi = trial % 2 == 1
        f = _random_homogeneous(rng, n, monos, multi)
        g = f.grading()
        n1 = rng.randint(1, n - 1)
        n2 = n - n1
        for l0 in range(-2, 3):
            one_block = tuple(cocompose_general(f, (n,), (l0, g - l0)))
            assert one_block == insert_component(f, 0, l0).grouped()
            for l1 in range(-2, 3):
                l2 = g - l0 - l1
                got = tuple(cocompose_general(f, (n1, n2), (l0, l1, l2)))
                acc = []
                for h, inner1, c1 in insert_block(f, 1, n1, g - l1).grouped():
                    for outer, inner2, c2 in insert_block(h, 2, n2, l0).grouped():
                        acc.append((outer, inner1, inner2, c1 * c2))
                assert got == regroup_tensor(acc)
                nonzero[multi] += bool(got)
    assert nonzero[False] and nonzero[True]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_table_reference_values():
    sym = kernel_table("symmetric", 2, 2)
    assert sym[(0, 0)] == 1
    assert sym[(1, 1)] == -2
    assoc = kernel_table("associative", 2, 2)
    assert assoc[(1, 2)] == -3


def test_kernel_double_expansions_agree_up_to_eight():
    kt = kernel_table("symmetric", 8, 8)
    one = symmetric_expansion("u", 8, 8)
    two = symmetric_expansion("v", 8, 8)
    for key, want in kt.items():
        assert one[key] == two[key] == want
    ka = kernel_table("associative", 8, 8)
    r1 = associative_expansion(1, 8, 8)
    r2 = associative_expansion(2, 8, 8)
    for key, want in ka.items():
        assert r1[key] == r2[key] == want


@pytest.mark.parametrize("call", [
    lambda: kernel_table("cubic", 2, 2),
    lambda: symmetric_expansion("w", 2, 2),
    lambda: associative_expansion(3, 2, 2),
], ids=["kernel_table", "symmetric_expansion", "associative_expansion"])
def test_kernel_bad_selector_is_a_schema_error(call):
    with pytest.raises(SchemaError):
        call()


# ---------------------------------------------------------------------------
# filtration and connectivity
# ---------------------------------------------------------------------------

def test_filtration_level_examples():
    assert lf("(z2-z1)^-2", 2).collision_level([1, 2]) == 2
    assert lf("(z2-z1)^-2", 2).collision_level([1]) == 0
    assert lf("(z2-z1)^-1*(z3-z2)^-1", 3).collision_level([1, 3]) == 0


def test_filtration_level_monotone_under_enlargement():
    rng = random.Random(8)
    for _ in range(10):
        n = 3
        monos = basis_monomials(n, rng.randint(0, 2), 3)
        f = LocalFn.from_monomial(n, rng.choice(monos))
        for small, big in ([ [1], [1, 2] ], [ [1, 2], [1, 2, 3] ], [ [2], [2, 3] ]):
            assert f.collision_level(small) <= f.collision_level(big)


def test_filtration_level_is_the_top_inner_grading_of_the_insertion():
    # the level on S is the largest inner grading q >= 1 at which the
    # insertion splitting S off is nonzero; the reference moves S into a
    # contiguous block with LocalFn.permute before inserting it
    rng = random.Random(19)
    cases = {0: 0, 1: 0}
    for _ in range(160):
        n = rng.randint(2, 4)
        g = rng.randint(-1, 3)
        monos = basis_monomials(n, g, max(0, g) + rng.randint(0, 2))
        if not monos:
            continue
        f = LocalFn.zero(n)
        for _ in range(rng.randint(1, 4)):
            f = f + LocalFn.from_monomial(n, rng.choice(monos), rng.choice([-3, -2, -1, 1, 2, 3]))
        if f.is_zero():
            continue
        # no inner grading exceeds a monomial's total pole depth
        top = max(sum(-fac[2] for fac in m if fac[0] == "d") for m in f.terms)
        for size in range(2, n + 1):
            for s in combinations(range(1, n + 1), size):
                order = list(range(1, s[0])) + list(s)
                order += [v for v in range(s[0] + 1, n + 1) if v not in s]
                sigma = [order.index(v) + 1 for v in range(1, n + 1)]
                h = f.permute(sigma)
                want = next((q for q in range(top, 0, -1)
                             if not insert_block(h, s[0], size, g - q).is_zero()), 0)
                assert f.collision_level(s) == want, (f, s)
                cases[want > 0] += 1
    assert cases[0] and cases[1] and sum(cases.values()) > 600


def test_filtration_basis_examples():
    assert filtration_basis(2, [1, 2], 0, 1, 1) == []
    assert filtration_basis(2, [1, 2], 1, 1, 1) == [lf("(z2-z1)^-1", 2)]
    assert filtration_basis(2, [2], 0, 1, 1) == [lf("(z2-z1)^-1", 2)]
    for f in filtration_basis(3, [1, 3], 1, 2, 3):
        assert f.collision_level([1, 3]) <= 1


def _coordinates(fns, cands):
    return [[f.terms.get(m, Fraction(0)) for m in cands] for f in fns]


def test_filtration_basis_spans_cancelling_three_point_form():
    # level 2 on {1,2}, although each of its four monomials is deeper there
    f = lf("(z1-z2)^-2*(z1-z3)^-2*(z2-z3)^-2", 3)
    assert len(f.terms) == 4 and f.collision_level([1, 2]) == 2
    basis = filtration_basis(3, [1, 2], 2, 6, 6)
    cands = basis_monomials(3, 6, 6)
    assert len(basis) == 9
    assert _rank(_coordinates(basis, cands)) == 9
    assert _rank(_coordinates(basis + [f], cands)) == 9


def _cleared_piece_dim(n, subset, N, cands):
    """Dimension of the level-<=N piece spanned by cands, by the route of
    _collision_level_exact: clear every pole into one polynomial numerator
    per candidate, substitute z_i = t + eps*u_i on the subset, and drop the
    rank of the eps^k coefficients, k < d_in - N, where d_in is the cleared
    pole depth inside the subset."""
    in_s = set(subset)
    dmax = {}
    for mono in cands:
        for m, fac in enumerate(mono, start=1):
            if fac[0] == "d":
                dmax[(m, fac[1])] = max(dmax.get((m, fac[1]), 0), -fac[2])
    d_in = sum(d for (hi, lo), d in dmax.items() if hi in in_s and lo in in_s)
    width = n + 2 + len(subset)  # z_1..z_n, t, eps, u_i for i in subset
    t_ix, e_ix = n, n + 1

    def rep(v):
        if v not in in_s:
            return polyq.linear(width, {v - 1: 1})
        eps_u = [0] * width
        eps_u[e_ix] = eps_u[n + 2 + subset.index(v)] = 1
        return polyq.add(polyq.linear(width, {t_ix: 1}), {tuple(eps_u): Fraction(1)})

    rows = []
    for mono in cands:
        num = polyq.const(width, 1)
        for m, fac in enumerate(mono, start=1):
            if fac[0] == "p":
                num = polyq.mul(num, polyq.power(rep(m), fac[1], width))
        for (hi, lo), d in dmax.items():
            fac = mono[hi - 1]
            rem = d + fac[2] if fac[:2] == ("d", lo) else d
            diff = polyq.add(rep(hi), polyq.scale(rep(lo), -1))
            num = polyq.mul(num, polyq.power(diff, rem, width))
        rows.append({e: c for e, c in num.items() if e[e_ix] < d_in - N})
    keys = sorted({e for row in rows for e in row})
    return len(cands) - _rank([[row.get(e, 0) for e in keys] for row in rows])


@st.composite
def filtration_pieces(draw):
    n = draw(st.integers(2, 3))
    subset = list(draw(st.sampled_from(
        [s for k in range(2, n + 1) for s in combinations(range(1, n + 1), k)])))
    grading = draw(st.integers(-1, 4))
    pole_budget = draw(st.integers(max(0, grading), grading + 2))
    return n, subset, draw(st.integers(0, 3)), grading, pole_budget


@settings(max_examples=100, deadline=None)
@given(filtration_pieces())
def test_hypothesis_filtration_basis_is_the_cleared_kernel(piece):
    n, subset, N, grading, pole_budget = piece
    basis = filtration_basis(n, subset, N, grading, pole_budget)
    for f in basis:
        assert _collision_level_exact(f, subset) <= N
    cands = basis_monomials(n, grading, pole_budget)
    # reduced echelon: increasing pivots, 1 at its own pivot, 0 at the others
    index = {m: c for c, m in enumerate(cands)}
    pivots = [min(index[m] for m in f.terms) for f in basis]
    assert pivots == sorted(set(pivots))
    for f, p in zip(basis, pivots):
        assert [g.terms.get(cands[p], 0) for g in basis] == [int(g is f) for g in basis]
    assert len(basis) == _cleared_piece_dim(n, subset, N, cands)


def test_in_connective_examples():
    assert in_connective(lf("(z2-z1)^-2", 2), 0, SortSignature(0, (1, 1)))
    assert not in_connective(lf("(z2-z1)^-3", 2), 0, SortSignature(1, (1, 1)))
    assert in_connective(lf("1", 2), 0, SortSignature(3, (1, 2)))
    # the sum of all pair collisions may exceed any single cluster level
    wick = lf(
        "(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2 + (z4-z1)^-2*(z3-z2)^-2", 4
    )
    assert in_connective(wick, 0, SortSignature(0, (1, 1, 1, 1)))


def test_in_connective_floor_exit_matches_levels():
    # in_connective stops scanning each subset at its bound; it must agree
    # with comparing the full collision level against that bound
    rng = random.Random(31)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(3, 4)
        i, j, k = sorted(rng.sample(range(1, n + 1), 3))
        a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)
        f = lf(f"(z{k}-z{i})^-{a}*(z{k}-z{j})^-{b}*(z{j}-z{i})^-{c}", n)
        g = f.grading()
        f = f + LocalFn.from_monomial(n, rng.choice(basis_monomials(n, g, g + 2)))
        sorts = [rng.randint(0, 3) for _ in range(n)]
        sig = SortSignature(sum(sorts) - g, sorts)
        for conn in range(-2, 2):
            want = all(
                f.collision_level(s) <= -conn + sum(sorts[v - 1] for v in s)
                for s in ([v + 1 for v in range(n) if mask >> v & 1]
                          for mask in range(1, 1 << n))
            )
            assert in_connective(f, conn, sig) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_connective_closure_under_insertion():
    wick = lf(
        "(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2 + (z4-z1)^-2*(z3-z2)^-2", 4
    )
    assert insertion_closure_failures(wick, 0, SortSignature(0, (1, 1, 1, 1)), 2, 4) == []
    f = lf("(z2-z1)^-2", 2)
    assert insertion_closure_failures(f, 0, SortSignature(0, (1, 1)), 1, 4) == []


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

def test_verify_axioms_clean_report():
    rep = verify_axioms(arity_cap=4, samples=15, truncation=3, seed=2)
    assert rep["failures"] == 0
    assert rep["checks"]
    for c in rep["checks"]:
        assert c["status"] == "ok"
        assert {"kind", "input", "slots", "component", "status"} <= set(c)


def test_verify_axioms_report_is_pinned():
    # sharing expansions within a sample must not change a byte of the report
    rep = verify_axioms(arity_cap=4, samples=15, truncation=3, seed=2)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "45631bbb5d11330b8259acd5a5e02ec10db674655b11f9b542e646e711fa68ad"


def test_verify_axioms_arity_five_report_is_pinned():
    # the report at arity cap 5, where every arity-5 sample is drawn by
    # counting and unranking instead of from a listed basis
    rep = verify_axioms(arity_cap=5, samples=12, truncation=3, seed=1)
    assert rep["failures"] == 0
    assert any("z5" in c["input"] for c in rep["checks"])
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "39f32f2006aeea48a6fe900c6cb48141be9bc10245aef13adf9e2bf97e0bb0fa"


def _listed_draw(rng, arity_cap):
    """The sample draw made from the listed basis: the reference that
    cooperad._random_monomial must match draw for draw."""
    n = rng.randint(2, arity_cap)
    for _ in range(40):
        g = rng.randint(-2, 3)
        pole = rng.randint(max(0, g), max(0, g) + 2)
        monos = basis_monomials(n, g, pole)
        if monos:
            return n, LocalFn.from_monomial(n, rng.choice(monos))
    return n, LocalFn.one(n)


def test_random_monomial_matches_the_listed_draw():
    for cap in range(2, 7):
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(2):
                assert cooperad._random_monomial(rng, cap) == _listed_draw(ref, cap), (cap, seed)
            assert rng.getstate() == ref.getstate()


def test_random_monomial_draws_at_arity_twelve():
    # seed 376 draws arity 12, grading 3 and pole budget 5, a basis of
    # 138,405,828 monomials that is counted, never listed
    rng = random.Random(376)
    assert len(MonomialBasis(12, 3, 5)) == 138_405_828
    n, f = cooperad._random_monomial(rng, 12)
    (mono,) = f.terms
    assert n == f.arity == len(mono) == 12
    assert mono_grading(mono) == 3 and mono_pole_total(mono) <= 5
    assert lf(str(f), 12) == f


def _break_binomial(monkeypatch):
    """Make C(k, 2) one too large for negative k inside the expansion engine."""
    good = cooperad.gbinom

    def bad(k, s):
        return good(k, s) + 1 if s == 2 and k < 0 else good(k, s)

    monkeypatch.setattr(cooperad, "gbinom", bad)


def test_verify_axioms_catches_a_broken_binomial(monkeypatch):
    # one wrong binomial coefficient breaks commutativity; shared expansions
    # must not make either route compare a result with itself
    _break_binomial(monkeypatch)
    rep = verify_axioms(arity_cap=4, samples=15, truncation=3, seed=2)
    failed = [c for c in rep["checks"] if c["status"] == "fail"]
    assert rep["failures"] == len(failed) == 7
    for c in failed:
        assert c["kind"] == "commutativity"
        assert "lhs" in c and "rhs" in c and c["lhs"] != c["rhs"]


def test_verify_axioms_catches_an_unsigned_permutation(monkeypatch):
    # the tensor side of each equivariance check permutes without the sign
    # of a flipped difference factor, while LocalFn.permute, on the other
    # side, keeps it: both equivariance kinds must fail
    good = cooperad._permute_gterm

    def unsigned(mono, sigma, coeff=1):
        return (coeff,) + good(mono, sigma, coeff)[1:]

    monkeypatch.setattr(cooperad, "_permute_gterm", unsigned)
    for seed, kinds in ((0, ["equivariance-inner"]), (3, ["equivariance-outer"] * 2)):
        rep = verify_axioms(arity_cap=4, samples=15, truncation=3, seed=seed)
        failed = [c for c in rep["checks"] if c["status"] == "fail"]
        assert rep["failures"] == len(failed)
        assert [c["kind"] for c in failed] == kinds
        assert all(c["lhs"] != c["rhs"] for c in failed)


@pytest.mark.parametrize("seed, failures, digest", [
    pytest.param(0, 25, "d211ba75c7b494e25dd99893842108270f46f75d1a7ce5bab01381fddd427f1b", id="seed0"),
    pytest.param(1, 7, "54638ea0344daf018aa7e5305d7ae556ce96d5d3a1cd2a818ef6a0bff08c3e89", id="seed1"),
    pytest.param(2, 7, "433d95d9a98618393831ba2f0f9472ae7d1cf599619ed306e1d18fe2b2e82601", id="seed2"),
    pytest.param(3, 20, "259f78c6ae1064818c43033b41a83432999b99e1be4bb63b2e57b6a554fe8964", id="seed3"),
])
def test_verify_axioms_failing_report_is_pinned(monkeypatch, seed, failures, digest):
    # a broken binomial must fail the same checks, and the report must show
    # both sides of each failure in the same text, byte for byte
    _break_binomial(monkeypatch)
    rep = verify_axioms(arity_cap=4, samples=15, truncation=3, seed=seed)
    assert rep["failures"] == failures
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


def test_json_text_matches_the_reference(monkeypatch):
    # to_json writes each distinct factor and inner function once and joins
    # the text; it must equal json.dumps of the reference's dict tree, and
    # to_obj must read it back as that tree
    fns = [
        LocalFn.zero(3),
        LocalFn.zero(0),
        LocalFn.const(0, Fraction(-3, 4)),
        lf("5", 0),
        lf("-3/5*z1^2*(z2-z1)^-1 + 7/2*(z3-z2)^-2*z1 - z3*(z3-z1)^-1 + 2", 3),
        lf("-(z2-z1)^-3 - 2*z2", 2),
    ]
    for f in fns:
        assert f.to_json() == json.dumps(fn_obj(f), sort_keys=True), f
        assert f.to_obj() == fn_obj(f)
    inner = lf("z1 - 1/2*(z2-z1)^-1", 2)
    repeated = te(2, 2, (lf("z1", 2), inner, 3), (lf("(z2-z1)^-1", 2), inner, Fraction(-2, 7)),
                  (lf("z2", 2), inner.scale(-4), 1), (lf("z1*z2", 2), lf("z2", 2), -1))
    # three of the four outer monomials carry the same monic inner function
    inners = [t["inner"] for t in tensor_obj(repeated)["terms"]]
    assert len(inners) == 4 and len({json.dumps(i) for i in inners}) == 2
    f = lf("z1*(z3-z1)^-2*(z3-z2)^-1", 3)
    tensors = [TensorElement(2, 1, {}), TensorElement(0, 2, {}), repeated,
               repeated.scale(Fraction(-5, 3))]
    tensors += [insert_component(f, m, p) for m in (0, 1, 2) for p in range(-1, 4)]
    assert any(t.is_zero() for t in tensors) and sum(not t.is_zero() for t in tensors) > 8
    for t in tensors:
        assert t.to_json() == json.dumps(tensor_obj(t), sort_keys=True), t
        assert t.to_obj() == tensor_obj(t)
    # the report writer, on a clean report, an empty one and a failing one
    # whose checks carry both sides
    reports = [verify_axioms(4, 6, 2, seed=2), verify_axioms(samples=0)]
    _break_binomial(monkeypatch)
    reports.append(verify_axioms(arity_cap=4, samples=15, truncation=3, seed=0))
    assert reports[-1]["failures"] == 25 and not reports[1]["checks"]
    for rep in reports:
        assert cooperad._report_json(rep) == json.dumps(rep, sort_keys=True)


def test_verify_axioms_needs_two_variables():
    with pytest.raises(SchemaError):
        verify_axioms(arity_cap=1)


def test_verify_axioms_unit_is_trivial():
    one = lf("1", 2)
    for p in range(-2, 3):
        comp = insert_component(one, 1, p)
        if p == 0:
            assert comp == te(2, 1, (lf("1", 2), lf("1", 1), 1))
        else:
            assert comp.is_zero()


def _two_insertions(f, first, second_arity, second, key):
    """Expanded sum of two single-grading insert_block calls: first =
    (pos, size, p) on f, then second = (factor, pos, size, p) on the outer
    (factor 0) or inner (factor 1) monomial of each term, the second factor
    of arity second_arity; key(h_pair, pair) assembles each term's key."""
    out = {}
    factor, pos, size, p = second
    for pair1, c1 in insert_block(f, *first).terms.items():
        h = LocalFn.from_monomial(second_arity, pair1[factor])
        for pair2, c2 in insert_block(h, pos, size, p).terms.items():
            k = key(pair1, pair2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _grid_monomials():
    """A spread of arity-3 and arity-4 basis monomials: every seventh of
    each piece of grading -1..2 and pole budget max(0, g) + 1."""
    return [mono for n in (3, 4) for g in range(-1, 3)
            for mono in basis_monomials(n, g, max(0, g) + 1)[::7]]


def test_axiom_grids_match_cell_by_cell_insertions():
    # every cell of both routes of both grids against two insert_block
    # calls per cell, one memo and one set of reductions shared by every
    # monomial and block, as an exhaustive check would share them
    T = 2
    order = [(p, q) for p in range(-T, T + 1) for q in range(-T, T + 1)]
    memo, reduced = {}, {}
    nonzero = 0
    for mono in _grid_monomials():
        n, g = len(mono), mono_grading(mono)
        f = LocalFn.from_monomial(n, mono)
        blocks = [(posA, a, posB, b) for a in range(1, n) for b in range(1, n - a + 1)
                  for posA in range(1, n - a - b + 2) for posB in range(posA + a, n - b + 2)]
        for posA, a, posB, b in blocks:
            grid = cooperad._commutativity_grid(mono, T, posA, a, posB, b, memo, reduced)
            assert list(grid) == order
            for (qA, qB), (one, two) in grid.items():
                want_one = _two_insertions(f, (posB, b, g - qB), n - b + 1,
                                           (0, posA, a, g - qB - qA),
                                           lambda hB, oA: (oA[0], oA[1], hB[1]))
                want_two = _two_insertions(f, (posA, a, g - qA), n - a + 1,
                                           (0, posB - a + 1, b, g - qA - qB),
                                           lambda hA, oB: (oB[0], hA[1], oB[1]))
                label = (mono, posA, a, posB, b, qA, qB)
                assert {k: c for k, c in one.items() if c} == want_one, label
                assert {k: c for k, c in two.items() if c} == want_two, label
                nonzero += bool(want_one)
        for b, b_sub in [(b, b_sub) for b in range(2, n + 1) for b_sub in range(1, b)]:
            grid = cooperad._coassoc_grid(mono, T, b, b_sub, memo, reduced)
            assert list(grid) == order
            for (p_out, p_mid), (one, two) in grid.items():
                want_one = _two_insertions(f, (n - b + 1, b, p_out), b,
                                           (1, b - b_sub + 1, b_sub, p_mid),
                                           lambda oi, mi: (oi[0], mi[0], mi[1]))
                want_two = _two_insertions(f, (n - b_sub + 1, b_sub, p_out + p_mid),
                                           n - b_sub + 1, (0, n - b + 1, b - b_sub + 1, p_out),
                                           lambda bi, om: (om[0], om[1], bi[1]))
                label = (mono, b, b_sub, p_out, p_mid)
                assert {k: c for k, c in one.items() if c} == want_one, label
                assert {k: c for k, c in two.items() if c} == want_two, label
                nonzero += bool(want_one)
    assert nonzero > 1000


def _adjacent_equivariance_failures():
    """(checks, failures) of equivariance under every adjacent transposition
    of the block and of the outer prefix, for every basis monomial of arity
    2-4, grading -1..2 and pole budget max(0, g) + 1, at every split m and
    every outer grading -2..2: the tensor side permutes through
    cooperad._permuted, the function side through LocalFn.permute."""
    checks = failures = 0
    for n in range(2, 5):
        for g in range(-1, 3):
            for mono in basis_monomials(n, g, max(0, g) + 1):
                f = LocalFn.from_monomial(n, mono)
                for m in range(n):
                    base = insert_components(f, m, -2, 2)
                    moves = []
                    for j in range(1, n - m):  # inner: swap block slots j, j+1
                        omega = list(range(1, n - m + 1))
                        omega[j - 1], omega[j] = omega[j], omega[j - 1]
                        moves.append((1, omega, list(range(1, m + 1)) + [m + w for w in omega]))
                    for i in range(1, m):  # outer: swap prefix slots i, i+1
                        head = list(range(1, m + 1))
                        head[i - 1], head[i] = head[i], head[i - 1]
                        moves.append((0, head + [m + 1], head + list(range(m + 1, n + 1))))
                    for side, perm, sigma in moves:
                        got = insert_components(f.permute(sigma), m, -2, 2)
                        for p in range(-2, 3):
                            checks += 1
                            failures += cooperad._permuted(base[p], side, perm) != got[p]
    return checks, failures


def test_equivariance_holds_under_every_adjacent_transposition():
    assert _adjacent_equivariance_failures() == (9495, 0)


def test_adjacent_transpositions_catch_an_unsigned_permutation(monkeypatch):
    # verify_axioms' sampled equivariance checks barely see a tensor-side
    # permutation that drops the sign of a flipped difference factor; the
    # exhaustive adjacent transpositions fail it hundreds of times
    good = cooperad._permute_gterm

    def unsigned(mono, sigma, coeff=1):
        return (coeff,) + good(mono, sigma, coeff)[1:]

    monkeypatch.setattr(cooperad, "_permute_gterm", unsigned)
    assert _adjacent_equivariance_failures() == (9495, 697)


def test_cocompose_three_blocks_matches_iterated_insertion():
    rng = random.Random(21)
    nonzero = {False: 0, True: 0}
    for trial in range(6):
        n = rng.randint(3, 4)
        monos = []
        while not monos:
            g = rng.randint(0, 2)
            monos = basis_monomials(n, g, g + 1)
        multi = trial % 2 == 1
        f = _random_homogeneous(rng, n, monos, multi)
        g = f.grading()
        sizes = [1, 1, n - 2] if n == 3 or rng.random() < 0.5 else [1, 2, 1]
        n1, n2, n3 = sizes
        for l0 in range(-1, 3):
            one_block = tuple(cocompose_general(f, (n,), (l0, g - l0)))
            assert one_block == insert_component(f, 0, l0).grouped()
            for l1 in range(-1, 2):
                for l2 in range(-1, 2):
                    l3 = g - l0 - l1 - l2
                    got = tuple(cocompose_general(f, (n1, n2, n3), (l0, l1, l2, l3)))
                    acc = []
                    for h, in1, c1 in insert_block(f, 1, n1, g - l1).grouped():
                        for h2, in2, c2 in insert_block(h, 2, n2, g - l1 - l2).grouped():
                            for outer, in3, c3 in insert_block(h2, 3, n3, l0).grouped():
                                acc.append((outer, in1, in2, in3, c1 * c2 * c3))
                    assert got == regroup_tensor(acc), (f, sizes, (l0, l1, l2, l3))
                    nonzero[multi] += bool(got)
    assert nonzero[False] and nonzero[True]


def test_insert_component_full_split():
    f = lf("z1", 1)
    comp = insert_component(f, 0, -1)
    assert comp == te(1, 1, (lf("z1", 1), lf("1", 1), 1))
    comp = insert_component(f, 0, 0)
    assert comp == te(1, 1, (lf("1", 1), lf("z1", 1), 1))


def _grid_inputs():
    """Every basis monomial of arity 2-3 (pole budget 3) and arity 4 (pole
    budget 2) at gradings -2..3, then two sums whose expansions cancel term
    by term."""
    inputs = [
        LocalFn.from_monomial(n, mono)
        for n, budget in ((2, 3), (3, 3), (4, 2))
        for g in range(-2, 4)
        for mono in basis_monomials(n, g, budget)
    ]
    return inputs + [lf("z1-z2", 2), lf("z1^2*(z1-z2)*(z3-z1)^-2", 3)]


def _insert_component_grid():
    """Every split m and outer grading -4..4 of every grid input."""
    for f in _grid_inputs():
        for m in range(f.arity):
            for p in range(-4, 5):
                yield insert_component(f, m, p)


def _grid_digest(components):
    h = hashlib.sha256()
    count = 0
    for comp in components:
        h.update(json.dumps(comp.to_obj(), sort_keys=True).encode())
        count += 1
    return count, h.hexdigest()


GRID_DIGEST = (23697, "73ba57ea654ee5725e63be94c14ce0798bc5d2fdb8c02a811e39b5daaa4a93f1")


def test_insert_component_grid_is_pinned():
    # the expansion engine must not change a byte of any component
    assert _grid_digest(_insert_component_grid()) == GRID_DIGEST
    # the two sums cancel: z1 - z2 has no outer-grading -1 part at m = 0
    assert insert_component(lf("z1-z2", 2), 0, -1).is_zero()


def test_insert_component_keeps_nothing_between_calls(monkeypatch):
    # reductions are shared within one call only: a changed binomial must
    # show in the next call with the same arguments
    f = lf("z1*(z3-z1)^-2*(z3-z2)^-1", 3)
    before = insert_component(f, 1, 3)
    _break_binomial(monkeypatch)
    assert insert_component(f, 1, 3) != before


def test_insert_components_reproduce_the_pinned_grid():
    # one enumeration per window gives the single-grading grid byte for byte
    comps = (
        comp
        for f in _grid_inputs()
        for m in range(f.arity)
        for comp in insert_components(f, m, -4, 4).values()
    )
    assert _grid_digest(comps) == GRID_DIGEST


def test_insert_components_match_insert_component():
    # every window, narrow or wide, holds exactly the single-grading
    # components, empty ones included, also for sums of several monomials
    rng = random.Random(16)
    inputs = [lf("z1-z2", 2), lf("(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2", 4)]
    for n, g in ((2, 1), (3, 0), (3, 2), (4, 1)):
        monos = basis_monomials(n, g, max(0, g) + 1)
        inputs += [_random_homogeneous(rng, n, monos, multi) for multi in (False, True)]
    seen = {False: 0, True: 0}
    for f in inputs:
        for m in range(f.arity):
            for lo, hi in ((-4, 4), (-1, 2), (3, 3)):
                comps = insert_components(f, m, lo, hi)
                assert sorted(comps) == list(range(lo, hi + 1))
                for p, comp in comps.items():
                    assert comp == insert_component(f, m, p), (f, m, lo, hi, p)
                    seen[comp.is_zero()] += 1
    assert seen[False] and seen[True]
    assert insert_components(f, 0, 1, 0) == {}


def _insert_block_by_conjugation(f, pos, size, p):
    """Reference block insertion: move the block last with LocalFn.permute,
    insert it there, and permute every outer factor back."""
    n = f.arity
    m = n - size
    block = list(range(pos, pos + size))
    sigma = [0] * n
    for newpos, v in enumerate([v for v in range(1, n + 1) if v not in block], start=1):
        sigma[v - 1] = newpos
    for offset, v in enumerate(block, start=1):
        sigma[v - 1] = m + offset
    rho = [j if j < pos else j + 1 for j in range(1, m + 1)] + [pos]
    comp = insert_component(f.permute(sigma), m, p)
    terms = {}
    for (mo, mi), c in comp.terms.items():
        for no, d in LocalFn.from_monomial(m + 1, mo).permute(rho).terms.items():
            terms[(no, mi)] = terms.get((no, mi), 0) + c * d
    return TensorElement(m + 1, size, terms)


def test_insert_block_matches_conjugation():
    rng = random.Random(17)
    nonzero = 0
    for n in (2, 3, 4):
        for g in (-1, 0, 1, 2):
            monos = basis_monomials(n, g, max(0, g) + 1)
            for multi in (False, True):
                f = _random_homogeneous(rng, n, monos, multi)
                for size in range(1, n + 1):
                    for pos in range(1, n - size + 2):
                        for p in range(-2, 4):
                            got = insert_block(f, pos, size, p)
                            want = _insert_block_by_conjugation(f, pos, size, p)
                            assert got == want, (f, pos, size, p)
                            assert json.dumps(got.to_obj()) == json.dumps(want.to_obj())
                            nonzero += not got.is_zero()
    assert nonzero


def _typed(grouped):
    """A grouping with the arity of every factor and the type of every
    coefficient beside it."""
    return [([(f.arity, {m: (c, type(c)) for m, c in f.terms.items()}) for f in g[:-1]],
             g[-1], type(g[-1])) for g in grouped]


def _no_localfn(*args):
    raise AssertionError("a LocalFn was built")


def test_tensor_element_format_is_invisible(monkeypatch):
    # equality and hashing read the expanded sum, printing reads the
    # canonical grouping: they must agree, whatever order the sum was built
    # in, and the grouping and both printed forms must be the reference's
    rng = random.Random(32)
    elems = []
    for n, g in ((2, 1), (3, 0), (3, 2), (4, 1)):
        monos = basis_monomials(n, g, max(0, g) + 1)
        for multi in (False, True):
            f = _random_homogeneous(rng, n, monos, multi)
            for m in range(n):
                for lo, hi in ((-2, 2), (1, 4)):
                    elems += insert_components(f, m, lo, hi).values()
            for size in range(1, n + 1):
                pos = rng.randint(1, n - size + 1)
                for p in range(-1, 3):
                    elems.append(_insert_block_by_conjugation(f, pos, size, p))
    elems += [a + a for a in elems[::7]] + [a.scale(2) for a in elems[::7]]
    elems += [a.scale(c) for c in (Fraction(-2, 3), 3, -1) for a in elems[::9]]
    assert sum(not a.is_zero() for a in elems) > 100
    pairs = [pair for a in elems for pair in a.terms]
    for a in elems:
        items = list(a.terms.items())
        rng.shuffle(items)
        absent = next(pair for pair in pairs if pair not in a.terms)
        items.insert(rng.randint(0, len(items)), (absent, 0))
        b = TensorElement(a.outer_arity, a.inner_arity, dict(items))
        assert b.terms == a.terms and 0 not in b.terms.values()
        assert b == a and hash(b) == hash(a)
        assert str(b) == str(a)
        assert json.dumps(b.to_obj()) == json.dumps(a.to_obj())
    shown = [(a.outer_arity, a.inner_arity, a.grouped()) for a in elems]
    equal_pairs = 0
    for (a, sa), (b, sb) in combinations(zip(elems, shown), 2):
        assert (a == b) == (sa == sb)
        if a == b:
            assert hash(a) == hash(b)
            equal_pairs += not a.is_zero()
    assert equal_pairs
    for a, (oa, ia, grouped) in zip(elems, shown):
        assert _typed(grouped) == _typed(regroup(a.terms, (oa, ia)))
    # the corpus holds leads of -1 and Fraction leads, and quotients that
    # are not integral under an int lead
    leads = [c for _, _, grouped in shown for _, _, c in grouped]
    assert -1 in leads and any(type(c) is Fraction for c in leads)
    assert any(type(c) is Fraction and type(lead) is int
               for _, _, grouped in shown for _, inner, lead in grouped
               for c in inner.terms.values())
    # a three-factor grouping, as cocompose_general returns it: 6 groups
    # with 3-term last factors
    got = cocompose_general(lf("z2^2*(z3-z1)^-2*(z4-z2)^-1*(z4-z3)^-1", 4), (2, 2), (5, -2, -1))
    assert len(got) == 6
    assert _typed(got) == _typed(regroup(expand_tensor(got), (2, 2, 2)))
    # str and to_obj print from the monomials, building no LocalFn
    monkeypatch.setattr(cooperad, "LocalFn", _no_localfn)
    for a in elems:
        assert str(a) == tensor_str(a)
        assert json.dumps(a.to_obj(), sort_keys=True) == json.dumps(tensor_obj(a), sort_keys=True)
