"""Tests for the shared sparse helpers: the accumulate helper and the
sparse-sum type behind LocalFn and VAElement."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vacalc.errors import ArityMismatch
from vacalc.localfn import LocalFn
from vacalc.numutil import add_into
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
    assert add_into(dict(before), terms) == _naive(before, terms, 1)


def test_add_into_cancels_to_empty():
    acc = {"x": Fraction(1, 2), "y": 3}
    assert add_into(acc, {"x": 1, "y": 6}, Fraction(-1, 2)) == {}


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
