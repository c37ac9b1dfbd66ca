"""Unit and property tests for canonical forms of local functions.

Expected values tagged by an example in the interface notes are frozen here;
everything derived is cross-checked through the direct-evaluation oracle
(eval_raw), which never goes through the canonicalizer.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vacalc.errors import (
    ArityMismatch,
    BadIndex,
    BadPermutation,
    CoincidentPoints,
    IllegalPole,
    ParseError,
)
from vacalc.localfn import (
    LocalFn,
    basis_monomials,
    canonicalize,
    eval_raw,
    mono_grading,
    parse,
)


def lf(text, arity):
    return LocalFn.from_text(text, arity)


def distinct_points(rng, n, lo=-40, hi=40):
    pts = set()
    while len(pts) < n:
        pts.add(Fraction(rng.randint(lo, hi), rng.randint(1, 7)))
    return list(pts)


# ---------------------------------------------------------------------------
# parse
# ---------------------------------------------------------------------------

def test_parse_product_with_inverse_difference():
    e = parse("(z2 - z1)^-1 * z1", 2)
    assert e.tree[0] == "mul"
    assert e.tree[1] == ("pow", ("sub", ("var", 2), ("var", 1)), -1)


def test_parse_rejects_pole_on_variable():
    with pytest.raises(IllegalPole):
        parse("z1^-1", 1)
    with pytest.raises(IllegalPole):
        parse("(z1*z2)^-2", 2)
    with pytest.raises(IllegalPole):
        parse("(z1-z1)^-1", 1)


def test_parse_sum_tree_and_rationals():
    e = parse("3/2 * (z3 - z2)^-2 + z1^2", 3)
    assert e.tree[0] == "add"
    assert eval_raw(e, [1, 2, 4]) == Fraction(3, 8) + 1


def test_parse_bad_index_and_syntax():
    with pytest.raises(BadIndex):
        parse("z3", 2)
    with pytest.raises(BadIndex):
        parse("z0", 2)
    with pytest.raises(ParseError):
        parse("z1 +", 1)
    with pytest.raises(ParseError):
        parse("1/0", 1)


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonical_antisymmetry():
    assert lf("(z1-z2)^-1", 2) == lf("(z2-z1)^-1", 2).scale(-1)


def test_canonical_partial_fraction_two_vars():
    f = lf("z2*(z2-z1)^-1", 2)
    assert f == lf("1 + z1*(z2-z1)^-1", 2)
    # frozen via the evaluation oracle: both sides are 3/2 at (1, 3)
    assert f.evaluate([1, 3]) == Fraction(3, 2)


def test_canonical_partial_fraction_three_vars():
    f = lf("(z3-z1)^-1*(z3-z2)^-1", 3)
    want = lf("(z2-z1)^-1*(z3-z2)^-1 - (z2-z1)^-1*(z3-z1)^-1", 3)
    assert f == want
    assert f.evaluate([0, 1, 3]) == Fraction(1, 6)


def test_canonicalize_idempotent_on_output():
    rng = random.Random(1)
    for _ in range(20):
        f = _random_localfn(rng, arity=3)
        again = sum(
            (LocalFn.from_monomial(3, m).scale(c) for m, c in f.terms.items()),
            LocalFn.zero(3),
        )
        assert again == f


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_arith_additive_inverse():
    f = lf("z1*(z2-z1)^-2 + 3", 2)
    assert (f + f.scale(-1)).is_zero()


def test_arith_same_base_power():
    g = lf("(z2-z1)^-1", 2)
    assert g * g == lf("(z2-z1)^-2", 2)


def test_arith_mul_recanonicalizes():
    g = lf("(z2-z1)^-1", 2)
    prod = g * lf("z2", 2)
    assert prod == lf("1 + z1*(z2-z1)^-1", 2)
    assert prod.evaluate([1, 3]) == Fraction(3, 2)


def test_arith_arity_mismatch():
    with pytest.raises(ArityMismatch):
        lf("z1", 1) + lf("z1", 2)


# ---------------------------------------------------------------------------
# permute
# ---------------------------------------------------------------------------

def test_permute_swap_negates_difference():
    f = lf("(z2-z1)^-1", 2)
    assert f.permute([2, 1]) == f.scale(-1)


def test_permute_relabels_variable():
    assert lf("z1", 2).permute([2, 1]) == lf("z2", 2)


def test_permute_recanonicalizes_with_oracle():
    f = lf("(z2-z1)^-1*(z3-z1)^-1", 3)
    g = f.permute([1, 3, 2])
    pts = [Fraction(0), Fraction(1), Fraction(3)]
    # g(z1,z2,z3) = f(z1,z3,z2)
    assert g.evaluate(pts) == f.evaluate([pts[0], pts[2], pts[1]])
    with pytest.raises(BadPermutation):
        f.permute([1, 1, 2])


def test_permute_right_action_law():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        f = _random_localfn(rng, n)
        sigma = list(range(1, n + 1))
        tau = list(range(1, n + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        comp = [tau[sigma[i] - 1] for i in range(n)]  # apply sigma, then tau
        assert f.permute(sigma).permute(tau) == f.permute(comp)


# ---------------------------------------------------------------------------
# grading, poles, evaluation
# ---------------------------------------------------------------------------

def test_grade_components_examples():
    comps = lf("(z2-z1)^-2", 2).grade_components()
    assert set(comps) == {2}
    comps = lf("z1 + (z2-z1)^-1", 2).grade_components()
    assert set(comps) == {-1, 1}
    assert comps[-1] == lf("z1", 2)
    assert comps[1] == lf("(z2-z1)^-1", 2)
    assert set(lf("1", 3).grade_components()) == {0}


def test_grading_multiplicative_on_homogeneous():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = _random_mono_fn(rng, n)
        g = _random_mono_fn(rng, n)
        prod = f * g
        if not prod.is_zero():
            assert prod.grading() == f.grading() + g.grading()


def test_pole_order_examples():
    assert lf("(z2-z1)^-2", 2).pole_order(1, 2) == 2
    assert lf("z1*z2", 2).pole_order(1, 2) == 0
    # cancellation across distinct canonical monomials must be seen
    diff = lf("(z2-z1)^-1*(z3-z1)^-1", 3) - lf("(z2-z1)^-1*(z3-z2)^-1", 3)
    assert diff.pole_order(1, 2) == 0
    assert LocalFn.zero(2).pole_order(1, 2) == 0


def test_pole_order_sub_additive():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 3)
        f = _random_localfn(rng, n)
        g = _random_localfn(rng, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert (f + g).pole_order(i, j) <= max(
                    f.pole_order(i, j), g.pole_order(i, j)
                )
                assert (f * g).pole_order(i, j) <= f.pole_order(i, j) + g.pole_order(i, j)


def test_evaluate_examples():
    assert lf("(z2-z1)^-1", 2).evaluate([0, 2]) == Fraction(1, 2)
    assert lf("z1*(z2-z1)^-1", 2).evaluate([1, 3]) == Fraction(1, 2)
    with pytest.raises(CoincidentPoints):
        lf("(z2-z1)^-1", 2).evaluate([1, 1])
    with pytest.raises(CoincidentPoints):
        lf("z1*z2", 2).evaluate([2, 2])


# ---------------------------------------------------------------------------
# basis enumeration
# ---------------------------------------------------------------------------

def test_basis_monomials_examples():
    assert [LocalFn.from_monomial(1, m) for m in basis_monomials(1, -2, 0)] == [
        lf("z1^2", 1)
    ]
    assert [LocalFn.from_monomial(2, m) for m in basis_monomials(2, 1, 1)] == [
        lf("(z2-z1)^-1", 2)
    ]
    got = {LocalFn.from_monomial(2, m) for m in basis_monomials(2, 0, 1)}
    assert got == {lf("1", 2), lf("z1*(z2-z1)^-1", 2)}


def test_basis_monomials_are_graded_and_bounded():
    for m in basis_monomials(3, 2, 3):
        assert mono_grading(m) == 2
        f = LocalFn.from_monomial(3, m)
        assert sum(
            f.pole_order(i, j) for i in range(1, 4) for j in range(i + 1, 4)
        ) <= 3


# ---------------------------------------------------------------------------
# random expression machinery (shared with the acceptance suite)
# ---------------------------------------------------------------------------

def random_raw_expr(rng, arity, depth=3):
    """Random expression tree: atoms are variables, rationals, and inverse
    differences; exponents stay in [-3, 3]."""

    def atom():
        roll = rng.random()
        if roll < 0.35:
            return ("var", rng.randint(1, arity))
        if roll < 0.55:
            return ("rat", Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        if arity >= 2:
            i = rng.randint(1, arity)
            j = rng.choice([x for x in range(1, arity + 1) if x != i])
            k = rng.randint(-3, -1)
            return ("pow", ("sub", ("var", i), ("var", j)), k)
        return ("var", 1)

    def node(d):
        if d == 0:
            return atom()
        op = rng.choice(["add", "sub", "mul", "mul", "pow"])
        if op == "pow":
            return ("pow", node(d - 1), rng.randint(0, 3))
        return (op, node(d - 1), node(d - 1))

    from vacalc.localfn import RawExpr

    return RawExpr(arity, node(depth))


def _random_mono_fn(rng, n):
    g = rng.randint(-2, 2)
    pole = rng.randint(max(0, g), max(0, g) + 2)
    monos = basis_monomials(n, g, pole)
    if not monos:
        return LocalFn.one(n)
    return LocalFn.from_monomial(n, rng.choice(monos))


def _random_localfn(rng, arity):
    out = LocalFn.zero(arity)
    for _ in range(rng.randint(1, 3)):
        out = out + _random_mono_fn(rng, arity).scale(rng.randint(-3, 3))
    return out


def test_canonical_soundness_random_sample():
    rng = random.Random(2024)
    for _ in range(40):
        arity = rng.randint(1, 4)
        expr = random_raw_expr(rng, arity)
        f = canonicalize(expr)
        for _ in range(5):
            pts = distinct_points(rng, arity)
            assert eval_raw(expr, pts) == f.evaluate(pts)


def test_equal_by_construction_have_equal_canonical_forms():
    rng = random.Random(55)
    for _ in range(25):
        arity = rng.randint(2, 4)
        f = _random_localfn(rng, arity)
        g = _random_localfn(rng, arity)
        # (f + g) - g == f, built through different reduction paths
        assert (f + g) - g == f
        assert f * g == g * f


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def raw_exprs(draw, arity=3):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return random_raw_expr(rng, arity, depth=draw(st.integers(1, 3)))


@settings(max_examples=50, deadline=None)
@given(raw_exprs())
def test_hypothesis_eval_matches_canonical(expr):
    rng = random.Random(99)
    pts = distinct_points(rng, expr.arity)
    assert eval_raw(expr, pts) == canonicalize(expr).evaluate(pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_hypothesis_ring_laws(seed_a, seed_b):
    fa = _random_localfn(random.Random(seed_a), 3)
    fb = _random_localfn(random.Random(seed_b), 3)
    assert fa + fb == fb + fa
    assert fa * fb == fb * fa
    assert (fa + fb) * fa == fa * fa + fb * fa


def test_serialization_round_trip():
    rng = random.Random(4)
    for _ in range(10):
        f = _random_localfn(rng, 3)
        assert LocalFn.from_json(f.to_json()) == f
