"""Tests for the oscillator realizations and the dimension series."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest

from vacalc.errors import SchemaError, TruncationTooSmall
from vacalc.fockoracle import (
    alpha_act,
    lattice_graded_dims,
    lattice_vertex_act,
    series_dims,
    state_weight,
    v_add,
    v_scale,
    vec,
    vec_to_obj,
    virasoro_act,
)


def rand_state(rng, max_parts=4, max_part=5, label=0):
    k = rng.randint(0, max_parts)
    parts = tuple(sorted((rng.randint(1, max_part) for _ in range(k)), reverse=True))
    return (parts, label)


# ---------------------------------------------------------------------------
# oscillator modes
# ---------------------------------------------------------------------------

def test_alpha_examples():
    assert alpha_act(1, vec(((1,), 0))) == vec()
    assert alpha_act(-2, vec()) == vec(((2,), 0))
    assert alpha_act(3, vec(((2,), 0))) == {}


def test_alpha_commutation_relation():
    rng = random.Random(0)
    for _ in range(50):
        s = vec(rand_state(rng))
        for m in range(-5, 6):
            for n in range(-5, 6):
                lhs = v_add(
                    alpha_act(m, alpha_act(n, s)),
                    v_scale(alpha_act(n, alpha_act(m, s)), -1),
                )
                want = v_scale(s, m) if m + n == 0 else {}
                assert lhs == want


def test_alpha_zero_mode_reads_label():
    assert alpha_act(0, vec(((), 3)), norm=2) == v_scale(vec(((), 3)), 6)
    assert alpha_act(0, vec(((2,), 0))) == {}


# ---------------------------------------------------------------------------
# quadratic realization
# ---------------------------------------------------------------------------

def test_virasoro_weight_operator_and_translation():
    assert virasoro_act(1, vec(((2,), 0))) == v_scale(vec(((2,), 0)), 2)
    assert virasoro_act(0, vec()) == {}
    assert virasoro_act(-1, vec()) == v_scale(vec(((1, 1), 0)), Fraction(1, 2))


def test_virasoro_weight_operator_reads_the_momentum():
    # L_0 = 1/2 alpha(0)^2 + sum_k alpha(-k) alpha(k): weight label^2/2 + parts
    assert virasoro_act(1, vec(((), 1))) == v_scale(vec(((), 1)), Fraction(1, 2))
    rng = random.Random(2)
    for _ in range(40):
        s = rand_state(rng, label=rng.randint(-2, 2))
        assert virasoro_act(1, vec(s)) == v_scale(vec(s), state_weight(s)), s


def test_virasoro_commutator_matches_central_charge_one():
    rng = random.Random(1)

    def L(a, v):
        return virasoro_act(a + 1, v)  # classical index a

    states = [rand_state(rng) for _ in range(20)]
    # Fock-momentum states: the zero-mode terms must keep the algebra
    states += [rand_state(rng, label=rng.choice((-2, -1, 1, 2))) for _ in range(10)]
    for state in states:
        s = vec(state)
        for a in range(-4, 5):
            for b in range(-4, 5):
                lhs = v_add(L(a, L(b, s)), v_scale(L(b, L(a, s)), -1))
                rhs = v_scale(L(a + b, s), a - b)
                if a + b == 0:
                    rhs = v_add(rhs, v_scale(s, Fraction(a**3 - a, 12)))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# lattice vertex operators
# ---------------------------------------------------------------------------

def test_lattice_unit_products():
    assert lattice_vertex_act(1, 1, vec(((), -1)), 4) == vec()
    assert lattice_vertex_act(-1, 1, vec(((), 1)), 4) == vec()


def test_lattice_regularity_and_leading_terms():
    # same-sign pair: pairing 2, so modes n >= -2 vanish
    for n in range(-2, 5):
        assert lattice_vertex_act(1, n, vec(((), 1)), 4) == {}
    assert lattice_vertex_act(1, -3, vec(((), 1)), 4) == vec(((), 2))
    # opposite-sign pair: pairing -2, so modes n >= 2 vanish
    for n in range(2, 7):
        assert lattice_vertex_act(1, n, vec(((), -1)), 4) == {}
    assert lattice_vertex_act(1, 0, vec(((), -1)), 4) == vec(((1,), 0))


def test_lattice_label_shift_and_weight_cutoff():
    out = lattice_vertex_act(1, -4, vec(((), 1)), 5)
    assert out and all(label == 2 for (_, label), _ in out.items())
    assert all(state_weight(s, 2) <= 5 for s in out)
    # the same mode under a tighter cutoff truncates to zero
    assert lattice_vertex_act(1, -4, vec(((), 1)), 4) == {}
    with pytest.raises(TruncationTooSmall):
        lattice_vertex_act(1, 0, vec(((3,), 1)), 2)


def test_lattice_modes_on_an_oscillator_state():
    # h = alpha(-1)|0>: e(0)h = -[h, e]_0 = -2e, f(0)h = 2f, and e(-2)h
    # keeps only the part 2 once E- and E+ cancel on the parts (1, 1)
    h = vec(((1,), 0))
    assert lattice_vertex_act(1, 0, h, 4) == {((), 1): -2}
    assert lattice_vertex_act(-1, 0, h, 4) == {((), -1): 2}
    assert lattice_vertex_act(1, -2, h, 4) == {((2,), 1): -1}


def test_lattice_modes_shift_the_weight_by_minus_n():
    # e^(+-alpha) has weight 1 at norm 2, so its mode n maps weight w to w - n
    states = [(parts, label) for parts in [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
              for label in (-1, 0, 1)]
    nonzero = 0
    for state in states:
        for sign in (1, -1):
            for n in range(-4, 4):
                out = lattice_vertex_act(sign, n, vec(state), 12)
                want = state_weight(state, 2) - n
                assert all(state_weight(s, 2) == want for s in out), (state, sign, n)
                nonzero += bool(out)
    assert nonzero > 100


@lru_cache(maxsize=None)
def _partitions(total, largest):
    """The partitions of total into parts <= largest, as descending tuples."""
    if total == 0:
        return ((),)
    return tuple((p,) + rest for p in range(min(total, largest), 0, -1)
                 for rest in _partitions(total - p, p))


@lru_cache(maxsize=None)
def _created(total, sign):
    """(partition, prod (sign/k)^(a_k) / a_k!) over the partitions of total
    with a_k parts k."""
    out = []
    for created in _partitions(total, total):
        c = Fraction(1)
        for k, a in Counter(created).items():
            c *= Fraction(sign, k) ** a / factorial(a)
        out.append((created, c))
    return out


def _closed_form_lattice_act(sign, n, state, cutoff, norm=2):
    """Mode n of e^(sign lambda) on one state from the coefficients of its
    closed form: E+ removes d of the c parts k with C(c, d) (-sign norm)^d
    and lowers the power of z by k d, and E- then creates each partition
    with a_k parts k with prod (sign/k)^(a_k) / a_k!."""
    parts, label = state
    counts = Counter(parts)
    sizes = sorted(counts)
    new_label = label + sign
    out = {}
    for ds in product(*(range(counts[k] + 1) for k in sizes)):
        coeff, rest, removed = Fraction(1), [], 0
        for k, d in zip(sizes, ds):
            coeff *= comb(counts[k], d) * (-sign * norm) ** d
            rest += [k] * (counts[k] - d)
            removed += k * d
        target = -n - 1 - sign * label * norm + removed
        if target < 0 or sum(rest) + Fraction(norm * new_label**2, 2) + target > cutoff:
            continue
        for created, c in _created(target, sign):
            key = (tuple(sorted(rest + list(created), reverse=True)), new_label)
            out[key] = out.get(key, 0) + coeff * c
    return {key: c for key, c in out.items() if c}


def test_lattice_modes_match_the_closed_form():
    # every partition of weight <= 6 at labels -2..2, both signs, modes
    # -6..4 and cutoffs 8 and 12: the operator built from exponentials of
    # alpha_act modes gives the closed-form coefficients
    cases = nonzero = 0
    for label, weight, sign, n, cutoff in product(
            range(-2, 3), range(7), (1, -1), range(-6, 5), (8, 12)):
        for parts in _partitions(weight, weight):
            state = (parts, label)
            if state_weight(state, 2) > cutoff:
                continue
            got = lattice_vertex_act(sign, n, vec(state), cutoff)
            assert got == _closed_form_lattice_act(sign, n, state, cutoff), (state, sign, n)
            cases += 1
            nonzero += bool(got)
    assert (cases, nonzero) == (5808, 3686)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_series_dims_examples():
    assert series_dims("partitions", 6) == [1, 1, 2, 3, 5, 7, 11]
    assert series_dims("partitions_min_part_2", 6) == [1, 0, 1, 1, 2, 2, 4]
    assert series_dims(("theta_over_eta", 2), 3) == [1, 3, 4, 7]


@pytest.mark.parametrize("call", [
    lambda: series_dims("partitions", -1),
    lambda: series_dims(("theta_over_eta", 3), 4),
    lambda: series_dims(("theta_over_eta", 0), 4),
    lambda: series_dims("theta", 4),
    lambda: lattice_vertex_act(2, 0, vec(), 4),
    # a norm <= 0 never ends the label loop; an odd one floors half-integer weights
    lambda: lattice_graded_dims(3, norm=0),
    lambda: lattice_graded_dims(3, norm=-2),
    lambda: lattice_graded_dims(3, norm=1),
    lambda: lattice_graded_dims(3, norm=3),
    # the trivial cocycle is valid only on an even lattice
    lambda: lattice_vertex_act(1, -1, vec(), 4, norm=0),
    lambda: lattice_vertex_act(1, -1, vec(), 4, norm=-2),
    lambda: lattice_vertex_act(1, -2, vec(((), 1)), 4, norm=1),
    lambda: lattice_vertex_act(1, -1, vec(), 4, norm=3),
], ids=["negative-weight", "odd-norm", "zero-norm", "unknown-kind", "sign",
        "lattice-norm-0", "lattice-norm-minus-2", "lattice-norm-1", "lattice-norm-3",
        "lattice-act-norm-0", "lattice-act-norm-minus-2", "lattice-act-norm-1",
        "lattice-act-norm-3"])
def test_bad_arguments_are_schema_errors(call):
    with pytest.raises(SchemaError):
        call()


def test_lattice_realization_dims_match_series():
    assert lattice_graded_dims(3) == series_dims(("theta_over_eta", 2), 3)


def test_state_dump_shape():
    out = lattice_vertex_act(1, -1, vec(((), 0)), 4)
    dump = vec_to_obj(out)
    assert all(set(d) == {"parts", "label", "coeff"} for d in dump)
