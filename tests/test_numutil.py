"""Property tests for the shared sparse accumulate helper."""

from fractions import Fraction

from hypothesis import given, strategies as st

from vacalc.numutil import add_into

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
