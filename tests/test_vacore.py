"""Tests for presentations, straightening, dimensions, radicals, correlators.

Derived expectations are certified against the oscillator realizations in
fockoracle, which share no code with the straightening engine.
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from vacalc import fockoracle as F
from vacalc.cooperad import SortSignature, in_connective
from vacalc.errors import (
    BadPartition,
    NoLocalMatch,
    SchemaError,
    TruncationTooSmall,
    WeightMismatch,
)
from vacalc.localfn import LocalFn, basis_monomials
from vacalc.numutil import gbinom
from vacalc.vacore import (
    _kernel,
    _mono_series_coeff,
    _mono_series_support,
    _solve,
    check_uniform_bound,
    graded_dims,
    lattice_check,
    load_presentation,
    npoint_vacuum,
    ope_singular,
    parse_element,
    preset_heisenberg,
    preset_lattice_rank1,
    preset_virasoro,
    radical_slice,
    spanning_basis,
)


@pytest.fixture(scope="module")
def vir():
    return preset_virasoro(Fraction(1, 2))


@pytest.fixture(scope="module")
def vir1():
    return preset_virasoro(1)


@pytest.fixture(scope="module")
def hei():
    return preset_heisenberg()


def lf(text, arity):
    return LocalFn.from_text(text, arity)


# ---------------------------------------------------------------------------
# loading and table completion
# ---------------------------------------------------------------------------

def test_preset_virasoro_shape(vir):
    assert vir.names == ["L"]
    assert vir.weights == [2]
    assert vir.central["c"] == Fraction(1, 2)
    got = {(n, str(el)) for n, el in ope_singular(vir, "L", "L")}
    assert got == {(0, "L(-2)1"), (1, "2 * L(-1)1"), (3, "1/4 * 1")}


def test_preset_heisenberg_shape(hei):
    assert hei.names == ["a"]
    assert hei.weights == [1]
    assert [(n, str(el)) for n, el in ope_singular(hei, "a", "a")] == [(1, "1")]


def test_weight_mismatch_detected():
    doc = {
        "generators": [{"name": "L", "weight": 3}],
        "relations": [
            {"a": "L", "b": "L", "n": 1, "result": [{"coeff": "2", "word": [["L", -1]]}]}
        ],
    }
    with pytest.raises(WeightMismatch):
        load_presentation(doc)


def test_document_round_trip_matches_preset(vir):
    doc = {
        "generators": [{"name": "L", "weight": 2}],
        "central": {"c": "1/2"},
        "relations": [
            {"a": "L", "b": "L", "n": 0, "result": [{"coeff": "1", "word": [["L", -2]]}]},
            {"a": "L", "b": "L", "n": 1, "result": [{"coeff": "2", "word": [["L", -1]]}]},
            {"a": "L", "b": "L", "n": 3, "result": [{"coeff": "1/4", "word": [], "tail": "vacuum"}]},
        ],
    }
    pres = load_presentation(doc)
    L = pres.gen_element("L")
    ref = vir.gen_element("L")
    for n in range(0, 4):
        assert str(pres.bracket(L, L, n)) == str(vir.bracket(ref, ref, n))


def test_schema_rejections():
    with pytest.raises(SchemaError):
        load_presentation({"preset": "nope"})
    with pytest.raises(SchemaError):
        load_presentation({"generators": [{"name": "x", "weight": 1}],
                           "relations": [{"a": "x", "b": "x", "n": -1, "result": []}]})
    with pytest.raises(SchemaError):
        preset_heisenberg(2, [[1, 0], [1, 1]])  # not symmetric
    one_gen = {"generators": [{"name": "x", "weight": 1}]}
    bad_docs = [
        "{not json",
        {"preset": "heisenberg", "rank": 1.5},
        {"preset": "heisenberg", "rank": True},
        {"preset": "heisenberg", "rank": 1, "form": [["x"]]},
        {"preset": "heisenberg", "rank": 1, "form": 1},
        {"preset": "lattice_rank1", "norm": "two"},
        {"generators": [{"name": "x", "weight": "1.0"}]},
        {**one_gen, "connectivity": 0.5},
        {**one_gen, "relations": [{"a": "x", "b": "x", "n": "one", "result": []}]},
        {**one_gen, "relations": [
            {"a": "x", "b": "x", "n": 0, "result": [{"coeff": "1", "word": [["x", -1.5]]}]}
        ]},
    ]
    for doc in bad_docs:
        with pytest.raises(SchemaError):
            load_presentation(doc)
    # integer strings are integers
    assert load_presentation({"preset": "heisenberg", "rank": "2"}).label == "heisenberg(rank=2)"


# ---------------------------------------------------------------------------
# derivative and brackets
# ---------------------------------------------------------------------------

def test_derivative_examples(hei):
    assert hei.derivative(hei.vacuum()).is_zero()
    a = hei.gen_element("a")
    assert str(hei.derivative(a)) == "a(-2)1"
    assert str(hei.derivative(hei.word_element([(0, -2)]))) == "2 * a(-3)1"


def test_bracket_table_values(vir):
    L = vir.gen_element("L")
    assert str(vir.bracket(L, L, 1)) == "2 * L(-1)1"
    assert str(vir.bracket(L, L, 3)) == "1/4 * 1"
    assert vir.bracket(L, L, 2).is_zero()


def test_normal_form_examples(hei, vir1):
    assert str(hei.word_element([(0, -3), (0, -1)])) == "a(-1)a(-3)1"
    got = vir1.word_element([(0, -3), (0, -1)])
    want = vir1.word_element([(0, -1), (0, -3)]) - vir1.word_element([(0, -5)]).scale(2)
    assert got == want


def test_normal_form_matches_oracle_on_example(vir1):
    # L(-3)L(-1)1 reduced and un-reduced must realize identically
    def realize(el):
        out = {}
        for (modes, tail), c in el.terms.items():
            v = F.virasoro_word([n for _, n in modes])
            for s, cc in v.items():
                out[s] = out.get(s, Fraction(0)) + c * cc
        return {k: v for k, v in out.items() if v}

    raw = F.virasoro_word([-3, -1])
    assert realize(vir1.word_element([(0, -3), (0, -1)])) == raw


def test_vacuum_axioms(hei, vir):
    for P, name in ((hei, "a"), (vir, "L")):
        g = P.gen_element(name)
        for n in range(0, 4):
            assert P.bracket(g, P.vacuum(), n).is_zero()
        assert P.bracket(g, P.vacuum(), -1) == g
        x = P.word_element([(0, -2), (0, -1)])
        for n in range(-3, 3):
            got = P.apply_mode(P.vacuum(), n, x)
            assert got == (x if n == -1 else P.zero())


def test_confluence_suffix_vs_bubble(hei, vir1):
    rng = random.Random(17)
    for P in (hei, vir1):
        for _ in range(100):
            k = rng.randint(0, 4)
            modes = [(0, rng.randint(-5, 5)) for _ in range(k)]
            el = P.element({(tuple(modes), None): Fraction(1)})
            assert P.normal_form(el, "suffix") == P.normal_form(el, "bubble")


# ---------------------------------------------------------------------------
# spanning sets and dimensions
# ---------------------------------------------------------------------------

def test_spanning_examples(hei, vir):
    assert [hei.word_str(w) for w in spanning_basis(hei, 2)] == [
        "a(-2)1",
        "a(-1)a(-1)1",
    ]
    assert [vir.word_str(w) for w in spanning_basis(vir, 4)] == [
        "L(-3)1",
        "L(-1)L(-1)1",
    ]
    assert spanning_basis(vir, 1) == []


def test_graded_dims_examples(hei, vir):
    assert graded_dims(hei, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert graded_dims(vir, 6) == [1, 0, 1, 1, 2, 2, 4]
    assert graded_dims(preset_heisenberg(2), 1) == [1, 2]


def test_graded_dims_match_series(hei, vir):
    assert graded_dims(hei, 8) == F.series_dims("partitions", 8)
    assert graded_dims(vir, 8) == F.series_dims("partitions_min_part_2", 8)


def test_heisenberg_words_are_independent_in_realization(hei):
    # normal words map to distinct oscillator states, certifying that the
    # spanning counts are true dimensions
    for w in range(0, 7):
        words = spanning_basis(hei, w)
        states = {
            tuple(sorted((-n for _, n in modes), reverse=True))
            for modes, _ in words
        }
        assert len(states) == len(words)


def test_virasoro_words_independent_at_c_one(vir1):
    # rank of the realization matrix equals the spanning count per weight
    for w in range(0, 7):
        words = spanning_basis(vir1, w)
        vecs = [F.virasoro_word([n for _, n in modes]) for modes, _ in words]
        keys = sorted({s for v in vecs for s in v})
        rows = [[v.get(k, Fraction(0)) for k in keys] for v in vecs]
        rank = _rank(rows)
        assert rank == len(words)


def _rank(rows):
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# uniformity bound
# ---------------------------------------------------------------------------

def test_uniform_bound(hei, vir):
    assert check_uniform_bound(hei, "a", "a") == 1
    assert check_uniform_bound(vir, "L", "L") == 3
    zero_form = preset_heisenberg(2, [[1, 0], [0, 1]])
    assert check_uniform_bound(zero_form, "a1", "a2") == -1
    assert ope_singular(zero_form, "a1", "a2") == []


# ---------------------------------------------------------------------------
# radical slices
# ---------------------------------------------------------------------------

def test_radical_generic_central_charge_is_trivial(vir1):
    assert radical_slice(vir1, 4).dimension == 0


def test_radical_lee_yang_null_vector():
    ly = preset_virasoro(Fraction(-22, 5))
    rs = radical_slice(ly, 4)
    assert rs.dimension == 1
    (kernel,) = rs.kernel
    v1 = ly.word_element([(0, -1), (0, -1)])
    v2 = ly.word_element([(0, -3)])
    want = v1 - v2.scale(Fraction(3, 5))
    lead = kernel.terms[max(kernel.terms)]
    assert kernel.scale(1 / lead) == want.scale(1 / want.terms[max(want.terms)])


def test_radical_heisenberg_weight_one(hei):
    assert radical_slice(hei, 1).dimension == 0


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------

def test_npoint_two_point_functions(hei, vir):
    assert npoint_vacuum(hei, ["a", "a"], 2) == lf("(z2-z1)^-2", 2)
    assert npoint_vacuum(vir, ["L", "L"], 4) == lf("(z2-z1)^-4", 2).scale(Fraction(1, 4))


def test_npoint_four_point_wick_sum(hei):
    got = npoint_vacuum(hei, ["a", "a", "a", "a"], 4)
    want = lf(
        "(z2-z1)^-2*(z4-z3)^-2 + (z3-z1)^-2*(z4-z2)^-2 + (z4-z1)^-2*(z3-z2)^-2", 4
    )
    assert got == want


def test_npoint_outputs_pass_connectivity(hei, vir):
    for pres, gens in ((hei, ["a", "a"]), (vir, ["L", "L"]), (hei, ["a"] * 4)):
        sorts = tuple(pres.wt(pres.gen_index(g)) for g in gens)
        f = npoint_vacuum(pres, gens, sum(sorts))
        assert in_connective(f, 0, SortSignature(0, sorts))


def test_npoint_scaled_form():
    scaled = preset_heisenberg(1, [[Fraction(3)]])
    assert npoint_vacuum(scaled, ["a", "a"], 2) == lf("(z2-z1)^-2", 2).scale(3)


def test_npoint_errors(hei):
    with pytest.raises(BadPartition):
        npoint_vacuum(hei, ["a"] * 5, 4)
    with pytest.raises(NoLocalMatch):
        # pole bound too small to host the two-point function
        npoint_vacuum(hei, ["a", "a"], 1)


def test_series_support_matches_closed_form():
    # the sparse rows of the correlator solve against the closed-form lookup,
    # on windows that cut through the support and, below four points, on
    # npoint's first window (four points stay at radius 2 to keep the brute
    # force over the window affordable)
    for r in range(1, 5):
        for b in range(0, 5):
            for g in range(-1, b + 1):
                for radius in sorted({1, b + abs(g) + 1} if r < 4 else {2}):
                    window = []
                    for head in product(range(-radius, radius + 1), repeat=r - 1):
                        last = -g - sum(head)
                        if -radius <= last <= radius:
                            window.append(head + (last,))
                    for m in basis_monomials(r, g, b):
                        want = {}
                        for e in window:
                            c = _mono_series_coeff(m, e)
                            if c:
                                want[e] = c
                        assert _mono_series_support(m, radius) == want, (m, radius)


@st.composite
def linear_systems(draw):
    """Small integer systems [A | b], with duplicate rows, zero rows and
    rows 0 = b_i mixed in."""
    ncols = draw(st.integers(0, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=ncols + 1, max_size=ncols + 1),
                         max_size=7))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols + [draw(entry)])
    return ncols, rows


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_elimination_against_independent_rank(system):
    ncols, rows = system
    aug = [[Fraction(x) for x in row] for row in rows]
    mat = [row[:ncols] for row in aug]
    rank = _rank(mat)

    kernel = _kernel([dict(enumerate(row)) for row in mat], ncols)
    assert len(kernel) == ncols - rank
    dense = [[vec.get(c, Fraction(0)) for c in range(ncols)] for vec in kernel]
    assert _rank(dense) == len(kernel)
    for vec in dense:
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0

    sol = _solve([dict(enumerate(row)) for row in aug], ncols)
    if _rank(aug) > rank:
        assert sol == "inconsistent"
    elif rank < ncols:
        assert sol is None
    else:
        assert len(sol) == ncols
        for row in aug:
            assert sum(a * x for a, x in zip(row, sol)) == row[ncols]


# ---------------------------------------------------------------------------
# lattice presentation
# ---------------------------------------------------------------------------

def test_lattice_check_passes():
    lat = preset_lattice_rank1(2)
    rep = lattice_check(lat, 4)
    assert rep["failures"] == 0
    kinds = {c["kind"] for c in rep["checks"]}
    assert {"regularity", "unit-product", "graded-dims", "leading-term"} <= kinds


def test_lattice_check_truncation_guard():
    lat = preset_lattice_rank1(2)
    with pytest.raises(TruncationTooSmall):
        lattice_check(lat, 3)


def test_lattice_presentation_rejects_table_operations():
    lat = preset_lattice_rank1(2)
    with pytest.raises(SchemaError):
        ope_singular(lat, "ep", "em")
    with pytest.raises(SchemaError):
        spanning_basis(lat, 2)
    assert graded_dims(lat, 3) == [1, 3, 4, 7]


# ---------------------------------------------------------------------------
# bracket-calculus identities (sampled; the acceptance suite runs the
# full-size version)
# ---------------------------------------------------------------------------

def _random_homogeneous(P, rng, wmax=4):
    w = rng.randint(1, wmax)
    basis = spanning_basis(P, w)
    while not basis:
        w = rng.randint(1, wmax)
        basis = spanning_basis(P, w)
    picks = rng.sample(basis, min(len(basis), rng.randint(1, 2)))
    return P.element({b: Fraction(rng.choice([-2, -1, 1, 2, 3])) for b in picks})


def _check_identities(P, rng, rounds):
    for _ in range(rounds):
        a = _random_homogeneous(P, rng)
        b = _random_homogeneous(P, rng)
        c = _random_homogeneous(P, rng)
        m, n = rng.randint(-3, 3), rng.randint(-3, 3)
        wa, wb = a.weight(), b.weight()
        lhs = P.bracket(a, P.bracket(b, c, n), m) - P.bracket(b, P.bracket(a, c, m), n)
        rhs = P.zero()
        for i in range(0, wa + wb + 1):
            co = gbinom(m, i)
            if co:
                rhs = rhs + P.bracket(P.bracket(a, b, i), c, m + n - i).scale(co)
        assert (lhs - rhs).is_zero(), ("jacobi", str(a), str(b), str(c), m, n)
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
        assert (lhs - rhs).is_zero(), ("skew", str(a), str(b), m)
        assert (
            P.bracket(P.derivative(a), b, n) - P.bracket(a, b, n - 1).scale(-n)
        ).is_zero()
        assert (
            P.derivative(P.bracket(a, b, n))
            - P.bracket(P.derivative(a), b, n)
            - P.bracket(a, P.derivative(b), n)
        ).is_zero()


def test_bracket_identities_sample(hei, vir):
    rng = random.Random(23)
    _check_identities(hei, rng, 8)
    _check_identities(vir, rng, 8)


def test_weight_bookkeeping_of_brackets(hei, vir1):
    rng = random.Random(31)
    for P in (hei, vir1):
        for _ in range(10):
            a = _random_homogeneous(P, rng)
            b = _random_homogeneous(P, rng)
            n = rng.randint(-3, 3)
            out = P.bracket(a, b, n)
            if not out.is_zero():
                assert out.weight() == a.weight() + b.weight() - n - 1


# ---------------------------------------------------------------------------
# element parsing
# ---------------------------------------------------------------------------

def test_parse_element(vir):
    assert parse_element(vir, "L") == vir.gen_element("L")
    assert parse_element(vir, "1") == vir.vacuum()
    got = parse_element(vir, "L(-3)L(-1)1")
    assert got == vir.word_element([(0, -3), (0, -1)])
    with pytest.raises(SchemaError):
        parse_element(vir, "Q(-1)1")
    with pytest.raises(SchemaError):
        parse_element(vir, "L(-1)garbage")


def test_step_bound_raises_non_terminating():
    from vacalc.errors import NonTerminating
    from vacalc.vacore import Presentation, VACUUM_WORD

    tiny = Presentation(
        [("L", 2)],
        {
            (0, 0, 0): {(((0, -2),), None): Fraction(1)},
            (0, 0, 1): {(((0, -1),), None): Fraction(2)},
            (0, 0, 3): {VACUUM_WORD: Fraction(1, 2)},
        },
        {"c": Fraction(1)},
        step_bound=5,
    )
    deep = tiny.element({(tuple([(0, -6 + i) for i in range(6)]), None): Fraction(1)})
    with pytest.raises(NonTerminating):
        tiny.normal_form(deep, "bubble")
