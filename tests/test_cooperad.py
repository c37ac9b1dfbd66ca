"""Tests for insertions, co-compositions, kernels, and the filtration."""

import random
from fractions import Fraction

import pytest

from vacalc.cooperad import (
    SortSignature,
    TensorElement,
    associative_expansion,
    cocompose_general,
    filtration_basis,
    filtration_level,
    in_connective,
    insert_block,
    insert_component,
    insertion_closure_failures,
    kernel_table,
    symmetric_expansion,
    verify_axioms,
)
from vacalc.errors import BadPartition, BadSplit, NotHomogeneous
from vacalc.localfn import LocalFn, basis_monomials, canonicalize, parse


def lf(text, arity):
    return LocalFn.from_text(text, arity)


def te(outer_arity, inner_arity, *terms):
    return TensorElement(outer_arity, inner_arity, terms)


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
        for outer, inner, _ in comp.terms:
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
    assert len(comp.terms) < 10
    for outer, inner, _ in comp.terms:
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
    from vacalc.cooperad import _norm_terms

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
            assert one_block == insert_component(f, 0, l0).terms
            for l1 in range(-2, 3):
                l2 = g - l0 - l1
                got = tuple(cocompose_general(f, (n1, n2), (l0, l1, l2)))
                acc = []
                for h, inner1, c1 in insert_block(f, 1, n1, g - l1).terms:
                    for outer, inner2, c2 in insert_block(h, 2, n2, l0).terms:
                        acc.append((outer, inner1, inner2, c1 * c2))
                assert got == _norm_terms(acc)
                nonzero[multi] += bool(got)
    assert nonzero[False] and nonzero[True]


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_table_reference_values():
    sym = kernel_table("symmetric", 2, 2).coefficients
    assert sym[(0, 0)] == 1
    assert sym[(1, 1)] == -2
    assoc = kernel_table("associative", 2, 2).coefficients
    assert assoc[(1, 2)] == -3


def test_kernel_double_expansions_agree_up_to_eight():
    kt = kernel_table("symmetric", 8, 8).coefficients
    one = symmetric_expansion("u", 8, 8)
    two = symmetric_expansion("v", 8, 8)
    for key, want in kt.items():
        assert one[key] == two[key] == want
    ka = kernel_table("associative", 8, 8).coefficients
    r1 = associative_expansion(1, 8, 8)
    r2 = associative_expansion(2, 8, 8)
    for key, want in ka.items():
        assert r1[key] == r2[key] == want


# ---------------------------------------------------------------------------
# filtration and connectivity
# ---------------------------------------------------------------------------

def test_filtration_level_examples():
    assert filtration_level(lf("(z2-z1)^-2", 2), [1, 2]) == 2
    assert filtration_level(lf("(z2-z1)^-2", 2), [1]) == 0
    assert filtration_level(lf("(z2-z1)^-1*(z3-z2)^-1", 3), [1, 3]) == 0


def test_filtration_level_monotone_under_enlargement():
    rng = random.Random(8)
    for _ in range(10):
        n = 3
        monos = basis_monomials(n, rng.randint(0, 2), 3)
        f = LocalFn.from_monomial(n, rng.choice(monos))
        for small, big in ([ [1], [1, 2] ], [ [1, 2], [1, 2, 3] ], [ [2], [2, 3] ]):
            assert filtration_level(f, small) <= filtration_level(f, big)


def test_filtration_basis_examples():
    assert filtration_basis(2, [1, 2], 0, 1, 1) == []
    got = filtration_basis(2, [1, 2], 1, 1, 1)
    assert [LocalFn.from_monomial(2, m) for m in got] == [lf("(z2-z1)^-1", 2)]
    got = filtration_basis(2, [2], 0, 1, 1)
    assert [LocalFn.from_monomial(2, m) for m in got] == [lf("(z2-z1)^-1", 2)]
    for m in filtration_basis(3, [1, 3], 1, 2, 3):
        assert filtration_level(LocalFn.from_monomial(3, m), [1, 3]) <= 1


def test_in_connective_examples():
    assert in_connective(lf("(z2-z1)^-2", 2), 0, SortSignature(0, (1, 1)))
    assert not in_connective(lf("(z2-z1)^-3", 2), 0, SortSignature(1, (1, 1)))
    assert in_connective(lf("1", 2), 0, SortSignature(3, (1, 2)))
    # the sum of all pair collisions may exceed any single cluster level
    wick = lf(
        "(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2 + (z4-z1)^-2*(z3-z2)^-2", 4
    )
    assert in_connective(wick, 0, SortSignature(0, (1, 1, 1, 1)))


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


def test_verify_axioms_unit_is_trivial():
    one = lf("1", 2)
    for p in range(-2, 3):
        comp = insert_component(one, 1, p)
        if p == 0:
            assert comp == te(2, 1, (lf("1", 2), lf("1", 1), 1))
        else:
            assert comp.is_zero()


def test_cocompose_three_blocks_matches_iterated_insertion():
    from vacalc.cooperad import _norm_terms

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
            assert one_block == insert_component(f, 0, l0).terms
            for l1 in range(-1, 2):
                for l2 in range(-1, 2):
                    l3 = g - l0 - l1 - l2
                    got = tuple(cocompose_general(f, (n1, n2, n3), (l0, l1, l2, l3)))
                    acc = []
                    for h, in1, c1 in insert_block(f, 1, n1, g - l1).terms:
                        for h2, in2, c2 in insert_block(h, 2, n2, g - l1 - l2).terms:
                            for outer, in3, c3 in insert_block(h2, 3, n3, l0).terms:
                                acc.append((outer, in1, in2, in3, c1 * c2 * c3))
                    assert got == _norm_terms(acc), (f, sizes, (l0, l1, l2, l3))
                    nonzero[multi] += bool(got)
    assert nonzero[False] and nonzero[True]


def test_insert_component_full_split():
    f = lf("z1", 1)
    comp = insert_component(f, 0, -1)
    assert comp == te(1, 1, (lf("z1", 1), lf("1", 1), 1))
    comp = insert_component(f, 0, 0)
    assert comp == te(1, 1, (lf("1", 1), lf("z1", 1), 1))
