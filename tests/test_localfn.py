"""Unit and property tests for canonical forms of local functions.

Expected values tagged by an example in the interface notes are frozen here;
everything derived is cross-checked through the direct-evaluation oracle
(reference.eval_raw), which never goes through the canonicalizer.
"""

import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from vacalc.errors import (
    ArityMismatch,
    BadIndex,
    BadPermutation,
    CoincidentPoints,
    IllegalPole,
    ParseError,
)
from vacalc.cooperad import (
    associative_expansion,
    filtration_basis,
    insert_components,
    kernel_table,
    symmetric_expansion,
)
from vacalc.localfn import (
    _MAX_NESTING,
    LocalFn,
    MonomialBasis,
    _collision_level,
    _collision_level_exact,
    _reduce,
    basis_monomials,
    canonicalize,
    mono_grading,
    mono_level_in_subset,
    mono_pole_total,
    mono_sort_key,
    parse,
)
from vacalc.vacore import npoint_ward, preset_heisenberg, preset_virasoro, radical_slice

from reference import eval_raw


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


def test_parse_ignores_trailing_whitespace():
    # whitespace is skipped at either end, and inside an error it stays
    for text in ("z1 ", "z1\t", " z1\n", "(z2 - z1)^-1 \t "):
        assert lf(text, 2) == lf(text.strip(), 2)
    with pytest.raises(ParseError) as exc:
        parse("z1 $ ", 1)
    assert str(exc.value) == "unexpected character at position 2: ' $ '"
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse(" \t", 1)


def test_parse_nesting_is_capped():
    deepest = "(" * _MAX_NESTING + "z1" + ")" * _MAX_NESTING
    assert lf(deepest, 1) == lf("z1", 1)
    for depth in (_MAX_NESTING + 1, 1000):
        with pytest.raises(ParseError, match=f"nested deeper than {_MAX_NESTING}"):
            parse("(" * depth + "z1" + ")" * depth, 1)


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


def test_power_of_a_sum_has_binomial_coefficients():
    for k in range(41):
        f = lf(f"(z1+z2)^{k}", 2)
        want = {(("p", j), ("p", k - j)): math.comb(k, j) for j in range(k + 1)}
        assert f.terms == want, k


def test_power_of_a_sum_times_a_pole_matches_eval_raw():
    expr = parse("(z1+z2+z3)^6*(z3-z1)^-2", 3)
    f = canonicalize(expr)
    rng = random.Random(6)
    for _ in range(10):
        pts = distinct_points(rng, 3)
        assert f.evaluate(pts) == eval_raw(expr, pts)


def test_long_sums_and_products_do_not_recurse():
    assert lf("+".join(["z1"] * 3000), 1) == lf("3000*z1", 1)
    assert lf("*".join(["z1"] * 3000), 1) == lf("z1^3000", 1)


def test_eval_raw_walks_long_chains():
    assert eval_raw(parse("+".join(["z1"] * 3000), 1), [1]) == 3000
    assert eval_raw(parse("-".join(["z1"] * 3000), 1), [1]) == -2998
    assert eval_raw(parse("*".join(["z1"] * 3000), 1), [2]) == 2 ** 3000


def test_deep_poles_of_one_variable_match_eval_raw():
    # one closed-form step per variable: the depth costs no more than the
    # 40 output terms, where one rewrite step per path walks C(40, 20)
    rng = random.Random(20)
    for text, n_terms in (("(z3-z1)^-20*(z3-z2)^-20", 40), ("z2^14*(z2-z1)^-14", 15)):
        expr = parse(text, 3)
        f = canonicalize(expr)
        assert len(f.terms) == n_terms
        for _ in range(5):
            pts = distinct_points(rng, 3)
            assert f.evaluate(pts) == eval_raw(expr, pts)


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


def test_basis_monomials_match_brute_force():
    # every factor choice per variable, filtered and sorted afterwards
    for n in range(5):
        for grading in range(-2, 4):
            for budget in range(4):
                factors = [
                    [("d", i, -k) for i in range(1, m) for k in range(1, budget + 1)]
                    + [("p", l) for l in range(budget - grading + 1)]
                    for m in range(1, n + 1)
                ]
                want = sorted(
                    (
                        mono
                        for mono in product(*factors)
                        if mono_grading(mono) == grading and mono_pole_total(mono) <= budget
                    ),
                    key=mono_sort_key,
                )
                assert basis_monomials(n, grading, budget) == want, (n, grading, budget)


def _basis_monomials_every_power(n, grading, pole_budget):
    """basis_monomials with every pure power of variable 1 tried and the
    grading tested at the leaf, instead of that power read off the grading."""
    if pole_budget < grading:
        return []
    pure_cap = pole_budget - grading
    out = []

    def rec(m, pole, pure, acc):
        if m == 0:
            if pole - pure == grading:
                out.append(tuple(reversed(acc)))
            return
        for i in range(1, m):
            for k in range(pole_budget - pole, 0, -1):
                acc.append(("d", i, -k))
                rec(m - 1, pole + k, pure, acc)
                acc.pop()
        for l in range(0, pure_cap - pure + 1):
            acc.append(("p", l))
            rec(m - 1, pole, pure + l, acc)
            acc.pop()

    rec(n, 0, 0, [])
    return out


def test_basis_monomials_read_the_first_power_off_the_grading():
    for n in range(6):
        for grading in range(-3, 6):
            for budget in range(7):
                want = _basis_monomials_every_power(n, grading, budget)
                assert basis_monomials(n, grading, budget) == want, (n, grading, budget)


def test_monomial_basis_counts_and_unranks_the_list():
    # the sequence holds no monomial: its length is counted and each entry
    # unranked, and both must agree with the list, empty bases included
    for n in range(6):
        for grading in range(-3, 5):
            for budget in range(7):
                want = basis_monomials(n, grading, budget)
                seq = MonomialBasis(n, grading, budget)
                assert len(seq) == len(want), (n, grading, budget)
                assert [seq[i] for i in range(len(seq))] == want, (n, grading, budget)
                with pytest.raises(IndexError):
                    seq[len(seq)]


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
        assert LocalFn.from_obj(json.loads(json.dumps(f.to_obj()))) == f


# ---------------------------------------------------------------------------
# collision levels: the eps-expansion against cleared numerators
# ---------------------------------------------------------------------------

THREE_POINT = "(z2-z1)^-2*(z3-z1)^-2*(z3-z2)^-2"
FIVE_VAR = "(z2-z1)^-2*(z3-z2)^-2*(z4-z3)^-2*(z5-z4)^-2*(z5-z1)^-1"


def all_subsets(n):
    return [[i + 1 for i in range(n) if mask >> i & 1] for mask in range(1, 1 << n)]


def test_collision_level_fixtures():
    f = lf(THREE_POINT, 3)
    # four monomials, some of depth 5 on {1,2}; they cancel down to level 2
    assert len(f.terms) == 4
    assert max(mono_level_in_subset(m, [1, 2]) for m in f.terms) == 5
    assert f.collision_level([1, 2]) == 2
    assert f.collision_level([1, 2, 3]) == 6
    assert lf(FIVE_VAR, 5).collision_level([1, 2]) == 2
    # the cluster {2,3,4} does not hold z1, the base of z3's and z4's poles;
    # the (z2-z1) numerator cancels the pole of the first four monomials
    f = lf(
        "2*(z2-z1)*(z3-z1)^-3*((z4-z1)^-1 - (z4-z3)^-1) + 2*(z3-z1)^-2*(z4-z3)^-1", 4
    )
    assert len(f.terms) == 5
    assert f.collision_level([2, 3, 4]) == 0
    assert f.collision_level([1, 3, 4]) == 4
    assert f.collision_level([1, 2, 3, 4]) == 3


@st.composite
def cancelling_sums(draw):
    """Random sums of basis monomials and of canonical forms of triangles
    (z_k-z_i)^-a (z_k-z_j)^-b (z_j-z_i)^-c, whose monomials are deeper on
    {i, j} than the sum, as in the three-point form."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    n = draw(st.integers(2, 4))
    if n == 2 or rng.random() < 0.3:
        f = _random_localfn(rng, n)
    else:
        f = LocalFn.zero(n)
    for _ in range(rng.randint(1, 2) if n > 2 else 0):
        i, j, k = sorted(rng.sample(range(1, n + 1), 3))
        a, b, c = rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 2)
        text = f"(z{k}-z{i})^-{a}*(z{k}-z{j})^-{b}*(z{j}-z{i})^-{c}"
        if rng.random() < 0.5:
            text += f"*z{rng.randint(1, n)}"
        g = lf(text, n)
        if rng.random() < 0.5:
            g = g.permute(rng.sample(range(1, n + 1), n))
        f = f + g.scale(rng.choice([-2, -1, 1, 2]))
    return f


@settings(max_examples=100, deadline=None)
@given(cancelling_sums())
@example(lf(THREE_POINT, 3))
def test_hypothesis_collision_level_matches_cleared_numerators(f):
    for s in all_subsets(f.arity):
        level = _collision_level_exact(f, s)
        assert f.collision_level(s) == level
        for floor in range(level + 2):
            assert _collision_level(f, s, floor) == max(level, floor)


# ---------------------------------------------------------------------------
# the closed-form reduction against single rewrite steps
# ---------------------------------------------------------------------------

def _reduce_r1r2(gterms, n):
    """The canonical reduction by single rewrite steps: the reference for
    _reduce's closed forms.  Each GTerm's highest variable x = z_v with a
    pure power and a pole, or with two poles, takes one step

        R2:  x^a (x-u)^k      ->  x^(a-1) (x-u)^(k+1) + u x^(a-1) (x-u)^k
        R1:  (x-u)^j (x-w)^k  ->  (u-w)^-1 [(x-u)^j (x-w)^(k+1) - (x-u)^(j+1) (x-w)^k]

    against v's smallest base, or its two smallest.  Each step shrinks the
    pure degree plus the pole depth at v, so the rewriting terminates.  No
    two paths merge, so the time grows exponentially with the pole depth."""
    out = {}
    stack = [(c, list(z), dict(d)) for (c, z, d) in gterms]
    while stack:
        coeff, zp, dp = stack.pop()
        if coeff == 0:
            continue
        owners = {}
        for hi, lo in dp:
            owners.setdefault(hi, []).append(lo)
        v = 0
        for m in sorted(owners, reverse=True):
            vbases = owners[m]
            if zp[m - 1] > 0 or len(vbases) >= 2:
                v = m
                vbases.sort()
                break
        if v == 0:
            mono = tuple(
                ("d", owners[m][0], dp[(m, owners[m][0])]) if m in owners else ("p", zp[m - 1])
                for m in range(1, n + 1)
            )
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
            continue
        if zp[v - 1] > 0:
            # R2 against the smallest base
            j0 = vbases[0]
            k = dp[(v, j0)]
            z1 = list(zp)
            z1[v - 1] -= 1
            d1 = dict(dp)
            if k + 1:
                d1[(v, j0)] = k + 1
            else:
                del d1[(v, j0)]
            stack.append((coeff, z1, d1))
            z2 = list(zp)
            z2[v - 1] -= 1
            z2[j0 - 1] += 1
            stack.append((coeff, z2, dict(dp)))
        else:
            # R1 on the two smallest bases; multiplier (z_j0-z_j1)^-1
            j0, j1 = vbases[0], vbases[1]
            for keep, drop, sign in (((v, j0), (v, j1), -1), ((v, j1), (v, j0), 1)):
                d1 = dict(dp)
                if d1[drop] + 1:
                    d1[drop] += 1
                else:
                    del d1[drop]
                d1[(j1, j0)] = d1.get((j1, j0), 0) - 1
                stack.append((coeff * sign, list(zp), d1))
    return out


@st.composite
def gterm_lists(draw):
    """(n, GTerms) over n variables: pure powers up to 3 and up to five pole
    factors of depth 1 or 2, half of them on the last variable, so that a
    variable often carries several bases and a pure power at once."""
    n = draw(st.integers(2, 5))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        zp = [draw(st.integers(0, 3)) for _ in range(n)]
        dp = {}
        for _ in range(draw(st.integers(0, 5))):
            hi = n if draw(st.booleans()) else draw(st.integers(2, n))
            lo = draw(st.integers(1, hi - 1))
            dp[(hi, lo)] = dp.get((hi, lo), 0) - draw(st.integers(1, 2))
        coeff = draw(st.one_of(st.integers(-3, 3), small_fracs))
        terms.append((coeff, zp, dp))
    return n, terms


@settings(max_examples=300, deadline=None)
@given(gterm_lists())
@example((3, [(1, [0, 0, 0], {(3, 1): -2, (3, 2): -2})]))
@example((3, [(1, [0, 0, 3], {(3, 1): -2})]))
@example((4, [(2, [1, 0, 0, 2], {(4, 1): -1, (4, 2): -2, (4, 3): -1, (3, 1): -1})]))
def test_hypothesis_reduce_matches_single_rewrite_steps(case):
    n, terms = case
    copy = [(c, list(z), dict(d)) for c, z, d in terms]
    assert _reduce(terms, n) == _reduce_r1r2(copy, n)
    assert terms == copy  # the input is left as it was


def _all_ints(f):
    return all(type(c) is int for c in f.terms.values())


def test_integer_inputs_keep_int_coefficients():
    # an integral coefficient is an int, never an integral Fraction (and
    # never a float), through every route that reduces
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = _random_localfn(rng, n)
        assert _all_ints(f)
        assert _all_ints(f.permute(rng.sample(range(1, n + 1), n)))
        assert _all_ints(f * f)
    for text, n in ((THREE_POINT, 3), (FIVE_VAR, 5), ("(z1+z2)^7*(z1-z2)^-3 - 2*(z1-z2)^-5", 2)):
        assert _all_ints(lf(text, n))
    # an insertion stores an int lead and monomial outer factors; its monic
    # inner factor is an int wherever it is integral
    f = lf("z1*(z3-z1)^-2*(z4-z2)^-1*(z4-z3)^-1 + 3*(z2-z1)^-3"
           " - 2*z2*(z4-z1)^-2*(z3-z2)^-2", 4)
    fractions = 0
    for m in range(4):
        for te in insert_components(f, m, -4, 4).values():
            for outer, inner, c in te.grouped():
                assert type(c) is int and _all_ints(outer)
                for x in inner.terms.values():
                    assert type(x) is int or (type(x) is Fraction and x.denominator > 1)
                    assert (c * x).denominator == 1
                    fractions += type(x) is Fraction
    assert fractions  # the check above sees both types
    # Ward correlators at an integral central charge and an integral form
    for pres, gens in ((preset_virasoro(2), ["L"] * 4),
                       (preset_heisenberg(1), ["a"] * 4),
                       (preset_heisenberg(2), ["a1", "a2", "a1", "a2"])):
        bound = sum(pres.wt(pres.gen_index(g)) for g in gens)
        f = npoint_ward(pres, gens, bound)
        assert f.terms and _all_ints(f)
    # the cluster filtration's basis, the radical's kernel vectors, and the
    # kernel tables with their mechanical expansions
    basis = filtration_basis(3, [1, 2], 2, 6, 6)
    assert len(basis) == 9 and all(_all_ints(f) for f in basis)
    kernel = radical_slice(preset_heisenberg(2, [[0, 0], [0, 1]]), 3).kernel
    assert len(kernel) == 7 and all(_all_ints(el) for el in kernel)
    tables = [kernel_table("symmetric", 6, 6), kernel_table("associative", 6, 6),
              symmetric_expansion("u", 6, 6), symmetric_expansion("v", 6, 6),
              associative_expansion(1, 6, 6), associative_expansion(2, 6, 6)]
    assert all(type(c) is int for table in tables for c in table.values())


def test_primitive_divides_in_integers():
    # every coefficient is divided by the lead: an integral quotient is an
    # int, and any other is the reduced Fraction that 1/lead times it gives
    monos = basis_monomials(3, 1, 2)
    first = min(monos, key=mono_sort_key)
    rest = [m for m in monos if m != first]
    values = [6, -7, 12, 1, -3, Fraction(1, 3), Fraction(-9, 2), Fraction(5, 6)]
    for lead in (2, -3, 6, 1, -1, Fraction(3, 2), Fraction(-1, 2), Fraction(2, 3)):
        terms = {first: lead, **dict(zip(rest, values))}
        got_lead, prim = LocalFn(3, terms).primitive()
        assert got_lead == lead and prim.terms[first] == 1
        for m, c in terms.items():
            old = c * (Fraction(1) / lead)
            q = prim.terms[m]
            assert q == old, (lead, c)
            if old.denominator == 1:
                assert type(q) is int, (lead, c)
            else:
                assert type(q) is Fraction and q.denominator > 1, (lead, c)
        assert prim.scale(lead) == LocalFn(3, terms)
