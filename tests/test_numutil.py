"""Tests for the shared sparse helpers: the accumulate helper, the
sparse-sum type behind LocalFn and VAElement, and fraction-free elimination."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from vacalc.errors import ArityMismatch
from vacalc.localfn import LocalFn
from vacalc.numutil import _echelon, _exact, _kernel, add_into
from vacalc.vacore import VAElement, preset_virasoro

# few keys and small values, so that sums cancel often
_keys = st.integers(0, 4)
_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
_nonzero = _values.filter(lambda v: v != 0)


def _naive(acc, terms, c):
    total = dict(acc)
    for k, v in terms.items():
        total[k] = total.get(k, 0) + c * v
    return {k: v for k, v in total.items() if v != 0}


@given(
    acc=st.dictionaries(_keys, _nonzero),
    terms=st.dictionaries(_keys, _values),
    c=st.one_of(st.just(0), st.just(1), _values),
)
def test_add_into_matches_naive_sum(acc, terms, c):
    before = dict(acc)
    got = add_into(acc, terms, c)
    assert got is acc
    assert got == _naive(before, terms, c)
    assert all(v != 0 for v in got.values())
    if c == 0:
        assert got == before
    if all(isinstance(v, int) for v in [c, *before.values(), *terms.values()]):
        assert all(isinstance(v, int) for v in got.values())
    # every value add_into writes is an int where it is integral
    assert all(type(got[k]) is int or got[k].denominator > 1 for k in terms if k in got and c)
    assert add_into(dict(before), terms) == _naive(before, terms, 1)


def test_add_into_cancels_to_empty():
    acc = {"x": Fraction(1, 2), "y": 3}
    assert add_into(acc, {"x": 1, "y": 6}, Fraction(-1, 2)) == {}


@pytest.mark.parametrize("c", [
    0, 7, -3, 10**30, True, False,
    Fraction(6, 3), Fraction(-4), Fraction(1, 2), Fraction(-5, 3),
    "3/1", "-2/4", "5", "0",
])
def test_exact_matches_the_fraction_route(c):
    # an int comes back as it is; everything else, bools too, goes through
    # Fraction: value and type are those of the Fraction route either way
    f = Fraction(c)
    want = f.numerator if f.denominator == 1 else f
    got = _exact(c)
    assert got == want and type(got) is type(want)


# (class, a space, a different space, three distinct keys); the two
# Virasoro presentations have the same central charge but are distinct
_SPARSE_SUMS = {
    "LocalFn": (
        LocalFn, 2, 3,
        [(("p", 0), ("d", 1, -1)), (("p", 1), ("p", 0)), (("p", 0), ("p", 2))],
    ),
    "VAElement": (
        VAElement, preset_virasoro(Fraction(1, 2)), preset_virasoro(Fraction(1, 2)),
        [((0, -2),), ((0, -3),), ((0, -2), (0, -2))],
    ),
}


@pytest.mark.parametrize(
    "cls, space, other_space, keys", list(_SPARSE_SUMS.values()), ids=list(_SPARSE_SUMS)
)
def test_sparse_sum_contract(cls, space, other_space, keys):
    coeffs = [Fraction(1, 2), Fraction(-3), Fraction(2, 3)]
    x = cls(space, dict(zip(keys, coeffs)))
    y = cls(space, dict(reversed(list(zip(keys, coeffs)))))
    assert list(x.terms) != list(y.terms)
    assert x == y and hash(x) == hash(y)
    assert (x - x).is_zero() and x - x == cls(space, {})
    assert x.scale(0).is_zero() and (0 * x).is_zero()
    assert cls(space, {keys[0]: 0, keys[1]: Fraction(0), keys[2]: 1}).terms == {keys[2]: 1}
    assert (x + x).terms == {k: 2 * c for k, c in zip(keys, coeffs)}
    assert cls(other_space, {}) != cls(space, {})
    with pytest.raises(ArityMismatch):
        x + cls(other_space, {})
    with pytest.raises(ArityMismatch):
        x - cls(other_space, {})


# sparse rows over 8 columns with entries of denominator 1..6, ints mixed in
_entry = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.integers(-4, 4),
)
_NCOLS = 8


@st.composite
def _row_lists(draw):
    """Rows with negative leads, zero and empty rows, and duplicate or
    negated rows mixed in."""
    rows = draw(st.lists(st.dictionaries(st.integers(0, _NCOLS - 1), _entry, max_size=5),
                         max_size=7))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "negated", "zero", "empty"]))
        if kind in ("duplicate", "negated") and rows:
            row = draw(st.sampled_from(rows))
            row = dict(row) if kind == "duplicate" else {c: -v for c, v in row.items()}
        elif kind == "zero":
            row = {c: Fraction(0, draw(st.integers(1, 6))) for c in draw(st.sets(
                st.integers(0, _NCOLS - 1), min_size=1, max_size=3))}
        else:
            row = {}
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def _dense_rref(rows, ncols):
    """Reduced row echelon form by textbook Gauss-Jordan on a dense
    Fraction matrix, as {pivot column: {column: nonzero value}}."""
    mat = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return {c: {j: v for j, v in enumerate(mat[i]) if v} for i, c in enumerate(pivots)}


@given(rows=_row_lists())
def test_rref_matches_dense_fraction_rref(rows):
    # the integer echelon: primitive rows with positive leads
    ech = _echelon(rows)
    for p, row in ech.items():
        assert all(type(v) is int and v for v in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
    # each row divided by its lead is the reduced echelon form
    got = {p: {c: Fraction(v, row[p]) for c, v in row.items()} for p, row in ech.items()}
    rref = _dense_rref(rows, _NCOLS)
    assert got == rref
    for p, row in got.items():
        assert min(row) == p and row[p] == 1
        assert all(q == p or q not in row for q in got)
        assert all(type(v) is Fraction and v != 0 for v in row.values())
    # kernel vectors are the null-space basis read off the reduced echelon
    # form: 1 at the free column f, -rref[p][f] at each pivot p, nothing else
    want = {
        f: {f: 1, **{p: -row[f] for p, row in rref.items() if f in row}}
        for f in range(_NCOLS)
        if f not in rref
    }
    # _kernel returns them as integer rows, in increasing order of f, with
    # one scale: the lcm of their denominators, which is each row's lead
    scale, kernel = _kernel(rows, _NCOLS)
    assert scale == lcm(*(v.denominator for vec in want.values() for v in vec.values()))
    assert list(kernel) == list(want)
    assert {f: {c: Fraction(v, scale) for c, v in vec.items()}
            for f, vec in kernel.items()} == want
    for f, vec in kernel.items():
        assert all(type(v) is int for v in vec.values())
        assert max(vec) == f and vec[f] == scale
        for row in rows:
            assert sum(v * vec.get(c, 0) for c, v in row.items()) == 0


def test_echelon_never_keeps_a_callers_row():
    # rows that meet no earlier pivot skip the cross reduction, and an
    # all-int row skips the lcm pass; each still becomes a new dict
    rows = [{0: 1, 2: 3}, {1: 2}, {3: Fraction(4)}, {0: 2, 2: 6}]
    copies = [dict(row) for row in rows]
    ech = _echelon(rows)
    assert ech == {0: {0: 1, 2: 3}, 1: {1: 1}, 3: {3: 1}}
    assert all(type(v) is int for row in ech.values() for v in row.values())
    assert not any(pivot is row for pivot in ech.values() for row in rows)
    assert rows == copies


def test_kernel_stops_reading_rows_at_full_rank():
    # once every column is a pivot the kernel is empty, whatever rows follow
    def rows():
        yield {0: 2, 1: 4}
        yield {1: Fraction(3, 2)}
        raise AssertionError("read a row past full rank")

    assert _kernel(rows(), 2) == (1, {})
    assert _echelon(rows(), 2) == {0: {0: 1}, 1: {1: 1}}


@given(rows=_row_lists(), cuts=st.lists(st.integers(0, 12), max_size=3))
def test_echelon_continues_an_echelon_it_returned(rows, cuts):
    # rows fed in batches, the pivots passed back each time, give the echelon
    # of one batch, and the kernel read from it is the kernel of all rows
    bounds = sorted(min(c, len(rows)) for c in cuts)
    *head, last = [rows[a:b] for a, b in zip([0, *bounds], [*bounds, len(rows)])]
    pivots = {}
    for batch in head:
        assert _echelon(batch, _NCOLS, pivots) is pivots
    assert _kernel(last, _NCOLS, pivots) == _kernel(rows, _NCOLS)
    assert pivots == _echelon(rows, _NCOLS)
    assert _kernel((), _NCOLS, pivots) == _kernel(rows, _NCOLS)


def test_echelon_continuation_edges():
    # Fraction rows continue an int echelon; an empty batch leaves it alone
    pivots = _echelon([{0: 2, 2: 4}], 3)
    assert _echelon([], 3, pivots) == {0: {0: 1, 2: 2}}
    assert _echelon([{1: Fraction(1, 3), 2: Fraction(1, 2)}], 3, pivots) == {
        0: {0: 1, 2: 2}, 1: {1: 2, 2: 3}}
    assert _kernel([], 3, pivots) == (2, {2: {2: 2, 0: -4, 1: -3}})
    # a batch that arrives after every column is a pivot changes nothing
    full = _echelon([{0: 1}, {1: Fraction(2, 3)}], 2)
    assert _echelon([{0: 3, 1: -1}, {1: Fraction(1, 2)}], 2, full) == {0: {0: 1}, 1: {1: 1}}
    assert _kernel([{0: 5}], 2, full) == (1, {})
