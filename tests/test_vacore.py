"""Tests for presentations, straightening, dimensions, radicals, correlators.

Derived expectations are certified against the oscillator realizations in
fockoracle, which share no code with the straightening engine.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from vacalc import fockoracle as F
from vacalc.fockoracle import lattice_check
from vacalc.cooperad import SortSignature, in_connective
from vacalc.errors import (
    BadPartition,
    JacobiViolation,
    NoLocalMatch,
    ResourceLimit,
    SchemaError,
    TruncationTooSmall,
    WeightMismatch,
)
from vacalc.localfn import LocalFn, basis_monomials
from vacalc.numutil import _kernel, add_into, gbinom
from vacalc import cli, vacore
from vacalc.vacore import (
    VACUUM_WORD,
    Presentation,
    VAElement,
    _check_jacobi,
    _lowering_generators,
    _mono_series_support,
    _vacuum_series_support,
    check_uniform_bound,
    graded_dims,
    load_presentation,
    npoint_vacuum,
    npoint_ward,
    ope_singular,
    parse_element,
    preset_heisenberg,
    preset_virasoro,
    radical_slice,
    radical_slices,
    spanning_basis,
    ward_correlator,
)

from reference import NonTerminating, nf_word_bubble, radical_stacked


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


def _bubble_nf(pres, el, bound=10**6):
    """Normal form of el by the independent bubble strategy."""
    out = {}
    for word, c in el.terms.items():
        add_into(out, nf_word_bubble(pres, word, bound), c)
    return VAElement(pres, out)


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


def _rel(a, b, n, *terms):
    """One document relation [a,b]_n = sum of coeff * word, word a mode list."""
    return {"a": a, "b": b, "n": n, "result": [{"coeff": c, "word": w} for c, w in terms]}


def _doc(names, relations):
    return {"generators": [{"name": g, "weight": 1} for g in names], "relations": relations}


def _simple_dims(pres, w_max):
    return [len(spanning_basis(pres, rs.weight)) - rs.dimension
            for rs in radical_slices(pres, w_max)]


def test_reversed_declaration_matches_forward():
    # [a,b]_1 = 1 declared either way round is one table
    forward = load_presentation(_doc("ab", [_rel("a", "b", 1, ("1", []))]))
    reverse = load_presentation(_doc("ab", [_rel("b", "a", 1, ("1", []))]))
    assert forward.ope == reverse.ope
    for pres in (forward, reverse):
        assert [(n, str(el)) for n, el in ope_singular(pres, "a", "b")] == [(1, "1")]
        assert [(n, str(el)) for n, el in ope_singular(pres, "b", "a")] == [(1, "1")]
        assert [radical_slice(pres, w).dimension for w in range(4)] == [0, 0, 0, 0]
        assert str(npoint_vacuum(pres, ["b", "a"], 4)) == "(z2-z1)^-2"
    for gens in (["a", "b"], ["b", "a"], ["a", "b", "a", "b"]):
        assert npoint_vacuum(reverse, gens, 4) == npoint_vacuum(forward, gens, 4)


# affine sl2 at level 1 in the basis e, f, h, declared with each pair in
# generator order and with each off-diagonal pair reversed
_SL2_FORWARD = [
    _rel("e", "f", 0, ("1", [["h", -1]])),
    _rel("e", "f", 1, ("1", [])),
    _rel("e", "h", 0, ("-2", [["e", -1]])),
    _rel("f", "h", 0, ("2", [["f", -1]])),
    _rel("h", "h", 1, ("2", [])),
]
_SL2_REVERSED = [
    _rel("f", "e", 0, ("-1", [["h", -1]])),
    _rel("f", "e", 1, ("1", [])),
    _rel("h", "e", 0, ("2", [["e", -1]])),
    _rel("h", "f", 0, ("-2", [["f", -1]])),
    _rel("h", "h", 1, ("2", [])),
]


@pytest.mark.parametrize("mutant, payload", [
    # [e,h]_0 = -3e against [e,f]_0 = h and [f,h]_0 = 2f
    (_rel("e", "h", 0, ("-3", [["e", -1]])), {"generators": ["e", "f", "h"], "modes": [0, 0]}),
    # [h,h]_1 = 3 against [e,f]_1 = 1
    (_rel("h", "h", 1, ("3", [])), {"generators": ["e", "f", "h"], "modes": [0, 1]}),
], ids=["structure-constant", "central-term"])
def test_jacobi_violation_at_load(mutant, payload):
    # both tables are skew-consistent, so only the Jacobi check rejects them
    key = (mutant["a"], mutant["b"], mutant["n"])
    table = [mutant if (r["a"], r["b"], r["n"]) == key else r for r in _SL2_FORWARD]
    with pytest.raises(JacobiViolation) as exc:
        load_presentation(_doc("efh", table))
    assert isinstance(exc.value, SchemaError)
    assert exc.value.payload() == payload


_MINIMAL_MODEL_C = [1 - Fraction(6 * (q - p) ** 2, p * q)
                    for p, q in ((2, 5), (3, 4), (2, 7), (4, 5))]


@pytest.mark.parametrize("pres", [
    *(preset_virasoro(c) for c in _MINIMAL_MODEL_C),
    preset_virasoro(1),
    preset_heisenberg(1),
    preset_heisenberg(2),
    preset_heisenberg(3),
    preset_heisenberg(2, [[1, 1], [1, 1]]),
    preset_heisenberg(2, [[0, 0], [0, 1]]),
], ids=["lee-yang", "ising", "c=-68/7", "tricritical", "c=1", "rank-1", "rank-2", "rank-3",
        "form-11-11", "form-00-01"])
def test_presets_pass_the_jacobi_check(pres):
    # presets skip the check at load; it must hold for every one of them
    _check_jacobi(pres)


def _virasoro_document(c):
    """The Virasoro algebra at central charge c as an explicit document."""
    return {
        "generators": [{"name": "L", "weight": 2}],
        "central": {"c": str(c)},
        "relations": [_rel("L", "L", 0, ("1", [["L", -2]])),
                      _rel("L", "L", 1, ("2", [["L", -1]])),
                      _rel("L", "L", 3, (str(Fraction(c) / 2), []))],
    }


def _heisenberg_document(rank, form=None):
    """The Heisenberg algebra of a symmetric form (the identity by default)
    as an explicit document that declares each pair once, in generator
    order, so the load completes every reverse row."""
    names = ["a"] if rank == 1 else [f"a{i + 1}" for i in range(rank)]
    form = form or [[int(i == j) for j in range(rank)] for i in range(rank)]
    return _doc(names, [_rel(names[i], names[j], 1, (str(form[i][j]), []))
                        for i in range(rank) for j in range(i, rank) if form[i][j]])


_FORMS = ([[1, 1], [1, 1]], [[0, 0], [0, 1]], [[0, 1], [1, 0]])


@pytest.mark.parametrize("preset, doc", [
    *((preset_virasoro(c), _virasoro_document(c)) for c in (*_MINIMAL_MODEL_C, 1, 0)),
    *((preset_heisenberg(rank), _heisenberg_document(rank)) for rank in (1, 2, 3)),
    *((preset_heisenberg(2, form), _heisenberg_document(2, form)) for form in _FORMS),
], ids=["lee-yang", "ising", "c=-68/7", "tricritical", "c=1", "c=0", "rank-1", "rank-2",
        "rank-3", "form-11-11", "form-00-01", "off-diagonal"])
def test_presets_equal_their_documents(preset, doc):
    # a preset writes its complete table directly; the document route
    # validates the same algebra's relations and completes them by skew
    # symmetry, so a missing or wrong row in a preset shows here
    loaded = load_presentation(doc)
    assert preset.ope == loaded.ope
    assert _typed_table(preset) == _typed_table(loaded)
    assert all(list(row) == sorted(row) for row in preset.ope.values())
    assert (preset.names, preset.weights) == (loaded.names, loaded.weights)
    assert preset.central == loaded.central


def test_reversed_affine_sl2_matches_forward():
    forward = load_presentation(_doc("efh", _SL2_FORWARD))
    reverse = load_presentation(_doc("efh", _SL2_REVERSED))
    assert forward.ope == reverse.ope
    assert len(forward.ope) == 7  # every ordered pair except (e,e) and (f,f)
    # L_1(sl2) is the A1 lattice algebra (Frenkel-Kac)
    lattice = F.series_dims(("theta_over_eta", 2), 4)
    assert lattice == [1, 3, 4, 7, 13]
    assert _simple_dims(forward, 4) == lattice
    assert _simple_dims(reverse, 4) == lattice


def test_table_coefficients_are_ints_where_integral():
    vir = preset_virasoro(Fraction(1, 2))
    row = vir.ope[(0, 0)]
    assert row[1] == {((0, -1),): 2} and type(row[1][((0, -1),)]) is int
    assert row[3] == {VACUUM_WORD: Fraction(1, 4)} and type(row[3][VACUUM_WORD]) is Fraction
    # the mode of T L = L(-2)1 is an integer multiple of a generator mode
    parts, id_coeff = vir._table_mode(0, 0, 0, 5)
    assert parts == [(0, 4, -5)] and type(parts[0][2]) is int and id_coeff == 0
    # every row of the reversed sl2 table but (h,h) comes from skew completion
    reverse = load_presentation(_doc("efh", _SL2_REVERSED))
    values = [c for row in reverse.ope.values() for entry in row.values() for c in entry.values()]
    assert len(values) == 9 and all(type(c) is int for c in values)


def _typed_table(pres):
    return {(a, b, n): {w: (c, type(c)) for w, c in entry.items()}
            for (a, b), row in pres.ope.items() for n, entry in row.items()}


def test_heisenberg_tables_keep_their_values_and_types():
    for rank in (1, 2, 3, 4):
        default = preset_heisenberg(rank)
        assert _typed_table(default) == {
            (i, i, 1): {VACUUM_WORD: (1, int)} for i in range(rank)}
        # the default is the identity form, built without a rank x rank matrix
        identity = preset_heisenberg(rank, [[int(i == j) for j in range(rank)]
                                            for i in range(rank)])
        assert _typed_table(identity) == _typed_table(default)
        assert (identity.gens, identity.label) == (default.gens, default.label)
    forms = [
        ([[1, 1], [1, 1]], {(a, b, 1): {VACUUM_WORD: (1, int)}
                            for a in range(2) for b in range(2)}),
        ([["1/2", "0"], ["0", "-2/3"]], {(0, 0, 1): {VACUUM_WORD: (Fraction(1, 2), Fraction)},
                                         (1, 1, 1): {VACUUM_WORD: (Fraction(-2, 3), Fraction)}}),
        ([[0, 0], [0, 1]], {(1, 1, 1): {VACUUM_WORD: (1, int)}}),
    ]
    for form, want in forms:
        assert _typed_table(preset_heisenberg(2, form)) == want
    bad = [
        ((0, None), "rank must be >= 1"),
        ((2, [[1, 0]]), "form must be rank x rank"),
        ((2, [[1, 0], [0]]), "form must be rank x rank"),
        ((2, 5), "form must be rank x rank"),
        ((2, [1, 2]), "form must be rank x rank"),
        ((2, [[1, 0], [1, 1]]), "form must be symmetric"),
        ((1, [["x"]]), "bad rational 'x' for a form entry"),
    ]
    for args, message in bad:
        with pytest.raises(SchemaError) as exc:
            preset_heisenberg(*args)
        assert str(exc.value) == message


def test_int_and_fraction_coefficients_print_and_compare_alike():
    pres = preset_virasoro(Fraction(1, 2))
    words = [((0, -2),), ((0, -3),), ((0, -2), (0, -2))]
    ints = VAElement(pres, dict(zip(words, [1, -3, 2])))
    fractions = VAElement(pres, dict(zip(words, [Fraction(1), Fraction(-3), Fraction(2)])))
    assert all(type(c) is int for c in ints.terms.values())
    assert all(type(c) is Fraction for c in fractions.terms.values())
    assert str(ints) == str(fractions) == "-3 * L(-3)1 + L(-2)1 + 2 * L(-2)L(-2)1"
    assert ints.to_obj() == fractions.to_obj()
    assert ints == fractions and hash(ints) == hash(fractions)
    # any other value is kept as a Fraction
    assert type(VAElement(pres, {words[0]: "1/2"}).terms[words[0]]) is Fraction


def test_both_directions_declared():
    both = load_presentation(_doc("efh", _SL2_FORWARD + _SL2_REVERSED[:4]))
    assert both.ope == load_presentation(_doc("efh", _SL2_FORWARD)).ope
    wrong = _SL2_FORWARD + [_rel("f", "e", 0, ("1", [["h", -1]]))]
    with pytest.raises(SchemaError, match=r"\[f,e\]_0 conflicts with skew symmetry"):
        load_presentation(_doc("efh", wrong))
    # a declared reverse row must be complete, not just agree where declared
    partial = [_rel("a", "b", 1, ("1", [])), _rel("b", "a", 0, ("1", [["a", -1]]))]
    with pytest.raises(SchemaError, match=r"\[b,a\]_0 conflicts"):
        load_presentation(_doc("ab", partial))
    # a diagonal row is its own reverse: [a,a]_0 = -[a,a]_0 + T [a,a]_1
    diagonal = [_rel("a", "a", 0, ("1", [["a", -1]])), _rel("a", "a", 1, ("1", []))]
    with pytest.raises(SchemaError, match=r"\[a,a\]_0 conflicts"):
        load_presentation(_doc("a", diagonal))


def test_explicit_zero_relations():
    # an explicit zero is checked against skew symmetry at its own n only
    conflict = [_rel("a", "b", 1), _rel("b", "a", 1, ("1", []))]
    with pytest.raises(SchemaError, match=r"\[a,b\]_1 = 0 conflicts"):
        load_presentation(_doc("ab", conflict))
    # [a,b]_0 = 0 agrees with [b,a]_1 = 1, since T kills the vacuum
    agree = load_presentation(_doc("ab", [_rel("a", "b", 0), _rel("b", "a", 1, ("1", []))]))
    assert agree.ope == load_presentation(_doc("ab", [_rel("b", "a", 1, ("1", []))])).ope
    # a redundant zero next to a forward sl2 table loads, and changes nothing
    redundant = load_presentation(_doc("efh", _SL2_FORWARD + [_rel("f", "e", 2)]))
    assert redundant.ope == load_presentation(_doc("efh", _SL2_FORWARD)).ope


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
        # sections of the wrong JSON type
        {**one_gen, "central": [1]},
        {**one_gen, "relations": 5},
        {**one_gen, "relations": [{"a": "x", "b": "x", "n": 0, "result": [1]}]},
        {**one_gen, "relations": [{"a": "x", "b": "x", "n": 0, "result": {"coeff": "1"}}]},
        {"generators": [{"name": ["x"], "weight": 1}]},
    ]
    for doc in bad_docs:
        with pytest.raises(SchemaError):
            load_presentation(doc)
    # a key that the preset does not take is named, not dropped
    for doc, key in [
        ({"preset": "virasoro", "rank": 2}, "rank"),
        ({"preset": "virasoro", "c": "1", "form": [[1]]}, "form"),
        ({"preset": "heisenberg", "c": "1"}, "c"),
        ({"preset": "heisenberg", "rank": 1, "label": "x"}, "label"),
    ]:
        with pytest.raises(SchemaError, match=f"takes no key '{key}'"):
            load_presentation(doc)
    # integer strings are integers
    assert load_presentation({"preset": "heisenberg", "rank": "2"}).label == "heisenberg(rank=2)"


def test_only_connectivity_0_loads():
    # [a,a]_1 = 1 at connectivity 1 would drop the vacuum from a(1)a
    doc = _doc("a", [_rel("a", "a", 1, ("1", []))])
    for value in (0, "0"):
        assert load_presentation({**doc, "connectivity": value}).ope == load_presentation(doc).ope
    for value in (1, -1):
        with pytest.raises(SchemaError, match="only connectivity 0 is supported"):
            load_presentation({**doc, "connectivity": value})


# ---------------------------------------------------------------------------
# derivative and brackets
# ---------------------------------------------------------------------------

def _letter_shift_derivative(pres, x):
    """T(g_1(n_1)...g_k(n_k)1) = sum_i -n_i g_1(n_1)...g_i(n_i - 1)...g_k(n_k)1,
    each shifted word straightened by word_element."""
    out = pres.zero()
    for word, c in x.terms.items():
        for i, (g, n) in enumerate(word):
            shifted = word[:i] + ((g, n - 1),) + word[i + 1 :]
            out = out + pres.word_element(shifted).scale(c * -n)
    return out


def test_derivative_examples(hei, vir1):
    assert hei.derivative(hei.vacuum()).is_zero()
    a = hei.gen_element("a")
    assert str(hei.derivative(a)) == "a(-2)1"
    assert str(hei.derivative(hei.word_element([(0, -2)]))) == "2 * a(-3)1"
    # derivative is x(-2)1; the letter-shift rule [T, g(n)] = -n g(n-1) is
    # an independent route, on a sum of words whose shifts straighten into
    # shared words and on every spanning word of weight <= 6
    x = vir1.word_element([(0, -2), (0, -2)]) + vir1.word_element([(0, -4)]).scale(3)
    assert vir1.derivative(x) == _letter_shift_derivative(vir1, x)
    for pres in (vir1, preset_virasoro(Fraction(-22, 5)), preset_heisenberg(2)):
        for w in range(7):
            for word in spanning_basis(pres, w):
                x = pres.element({word: 1})
                assert pres.derivative(x) == _letter_shift_derivative(pres, x), word


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
        for modes, c in el.terms.items():
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
            got = P.bracket(P.vacuum(), x, n)
            assert got == (x if n == -1 else P.zero())


def _confluence_draw(rng):
    """100 random words of at most four modes -5..5 of generator 0."""
    for _ in range(100):
        k = rng.randint(0, 4)
        yield tuple((0, rng.randint(-5, 5)) for _ in range(k))


def test_confluence_suffix_vs_bubble(hei, vir1):
    rng = random.Random(17)
    for P in (hei, vir1):
        for modes in _confluence_draw(rng):
            el = P.element({modes: Fraction(1)})
            assert P.normal_form(el) == _bubble_nf(P, el)


def test_bubble_catches_a_table_mode_mutant():
    # the bubble strategy reads table modes by its own formula, so a wrong
    # _table_mode reaches normal_form only; the mutant doubles the part of
    # each entry mode that comes from a single derivative T g (s = 1, at
    # mode N - 1), as in [L, L]_0 = L(-2)1
    rng = random.Random(17)
    for _ in _confluence_draw(rng):  # the Heisenberg half of the draw
        pass
    words = list(_confluence_draw(rng))
    mutant = preset_virasoro(1)
    table_mode = mutant._table_mode

    def doubled(a, b, j, N):
        parts, id_coeff = table_mode(a, b, j, N)
        return [(g, n, 2 * c if n == N - 1 else c) for g, n, c in parts], id_coeff

    mutant._table_mode = doubled
    shipped = preset_virasoro(1)

    def disagree(pres, word):
        el = pres.element({word: 1})
        return pres.normal_form(el) != _bubble_nf(pres, el)

    wrong = [w for w in words if disagree(mutant, w)]
    assert wrong and not any(disagree(shipped, w) for w in wrong)


@pytest.mark.parametrize("doc, w_max", [
    (_doc("efh", _SL2_FORWARD), 3),
    (_doc("efh", _SL2_REVERSED), 3),
    ({"preset": "virasoro", "c": "-22/5"}, 5),
    ({"preset": "heisenberg", "rank": 2, "form": [[0, 1], [1, 0]]}, 3),
], ids=["sl2-forward", "sl2-reversed", "lee-yang", "heisenberg-off-diagonal"])
def test_one_mode_on_spanning_words_vs_bubble(doc, w_max):
    # g(n) b for every generator g, every n in -3..wt(g)+1 and every normal
    # word b up to weight w_max: one straightening step over every generator
    # pair, where h(m) goes back in front of the words of g(n) b'
    pres = load_presentation(doc)
    for w in range(w_max + 1):
        for b in spanning_basis(pres, w):
            for g in range(len(pres.gens)):
                for n in range(-3, pres.wt(g) + 2):
                    el = pres.element({((g, n),) + b: 1})
                    assert pres.normal_form(el) == _bubble_nf(pres, el), (g, n, b)


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


# Virasoro with a weight-3 primary W whose self-products vanish
_LW_DOC = {
    "generators": [{"name": "L", "weight": 2}, {"name": "W", "weight": 3}],
    "central": {"c": "1"},
    "relations": [
        _rel("L", "L", 0, ("1", [["L", -2]])),
        _rel("L", "L", 1, ("2", [["L", -1]])),
        _rel("L", "L", 3, ("1/2", [])),
        _rel("L", "W", 0, ("1", [["W", -2]])),
        _rel("L", "W", 1, ("3", [["W", -1]])),
    ],
}


@pytest.mark.parametrize("pres", [
    lambda: preset_heisenberg(1),
    lambda: preset_heisenberg(2),
    lambda: preset_heisenberg(3),
    lambda: preset_virasoro(Fraction(1, 2)),
    lambda: load_presentation(_doc("efh", _SL2_FORWARD)),
    lambda: load_presentation(_LW_DOC),
], ids=["heisenberg1", "heisenberg2", "heisenberg3", "virasoro", "sl2", "LW"])
def test_graded_dims_count_the_spanning_words(pres):
    pres = pres()
    assert graded_dims(pres, 12) == [len(spanning_basis(pres, w)) for w in range(13)]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_graded_dims_of_heisenberg_are_powers_of_the_partition_series(rank):
    # prod_n (1 - q^n)^(-rank), multiplied out one factor at a time
    w_max = 30
    want = [1] + [0] * w_max
    for _ in range(rank):
        for n in range(1, w_max + 1):
            for w in range(n, w_max + 1):
                want[w] += want[w - n]
    assert graded_dims(preset_heisenberg(rank), w_max) == want


def test_graded_dims_needs_positive_weights():
    pres = load_presentation({"generators": [{"name": "x", "weight": 0}]})
    with pytest.raises(SchemaError, match="weights >= 1"):
        graded_dims(pres, 3)
    assert graded_dims(preset_heisenberg(), -1) == []


def test_heisenberg_words_are_independent_in_realization(hei):
    # normal words map to distinct oscillator states, certifying that the
    # spanning counts are true dimensions
    for w in range(0, 7):
        words = spanning_basis(hei, w)
        states = {
            tuple(sorted((-n for _, n in modes), reverse=True))
            for modes in words
        }
        assert len(states) == len(words)


def test_virasoro_words_independent_at_c_one(vir1):
    # rank of the realization matrix equals the spanning count per weight
    for w in range(0, 7):
        words = spanning_basis(vir1, w)
        vecs = [F.virasoro_word([n for _, n in modes]) for modes in words]
        keys = sorted({s for v in vecs for s in v})
        rows = [[v.get(k, Fraction(0)) for k in keys] for v in vecs]
        rank = _rank(rows)
        assert rank == len(words)


def _rank(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
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


def test_rank_is_exact():
    # eliminated in floats, 10**17 + 1 - 10**17 would read 0
    assert _rank([[1, 10**17], [1, 10**17 + 1]]) == 2


def _mono_series_coeff(mono, exps) -> Fraction:
    """Coefficient of prod z_i^(e_i) in the expansion of a basis monomial on
    the region |z_r| > ... > |z_1|, where (z_m - z_i)^k expands as
    sum_s C(k, s) (-1)^s z_i^s z_m^(k-s).

    Processing owners from the top variable down determines every expansion
    order s uniquely, so this is a closed-form lookup: the reference that
    vacore._mono_series_support's walk is checked against.
    """
    r = len(mono)
    need = list(exps)
    coeff = Fraction(1)
    for m in range(r, 0, -1):
        fac = mono[m - 1]
        if fac[0] == "p":
            if need[m - 1] != fac[1]:
                return Fraction(0)
        else:
            i, k = fac[1], fac[2]
            s = k - need[m - 1]
            if s < 0:
                return Fraction(0)
            coeff *= gbinom(k, s) * (-1) ** (s % 2)
            if coeff == 0:
                return Fraction(0)
            need[i - 1] -= s
    return coeff


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


_LJ_DOC = {
    "generators": [{"name": "L", "weight": 2}, {"name": "J", "weight": 1}],
    "central": {"c": "-22/5"},
    "relations": [
        {"a": "L", "b": "L", "n": 0, "result": [{"coeff": "1", "word": [["L", -2]]}]},
        {"a": "L", "b": "L", "n": 1, "result": [{"coeff": "2", "word": [["L", -1]]}]},
        {"a": "L", "b": "L", "n": 3, "result": [{"coeff": "-11/5", "word": []}]},
        {"a": "L", "b": "J", "n": 0, "result": [{"coeff": "1", "word": [["J", -2]]}]},
        {"a": "L", "b": "J", "n": 1, "result": [{"coeff": "1", "word": [["J", -1]]}]},
    ],
}


def _lowering_words(pres, drop):
    """Every multiset of lowering modes g(m), m >= wt(g), whose drops
    m + 1 - wt(g) add up to ``drop``, as a sorted mode list.  One order per
    multiset suffices: reordering adds products of fewer lowering modes with
    the same total drop, which are listed too."""
    modes = [
        (g, pres.wt(g) + d - 1) for g in range(len(pres.gens)) for d in range(1, drop + 1)
    ]
    out = []
    for length in range(1, drop + 1):
        for word in combinations_with_replacement(modes, length):
            if sum(m + 1 - pres.wt(g) for g, m in word) == drop:
                out.append(list(word))
    return out


@pytest.mark.parametrize("doc, w_max, dims", [
    ({"preset": "virasoro", "c": "-22/5"}, 8, [0, 0, 0, 0, 1, 1, 2, 2, 4]),
    ({"preset": "virasoro", "c": "1/2"}, 8, [0, 0, 0, 0, 0, 0, 1, 1, 2]),
    ({"preset": "heisenberg", "rank": 2, "form": [[1, 1], [1, 1]]}, 5, [0, 1, 3, 7, 15, 29]),
    (_LJ_DOC, 6, [0, 1, 2, 4, 9, 15, 27]),
    # spanning 1, 3, 9, 22, 51 minus the Frenkel-Kac dims 1, 3, 4, 7, 13
    (_doc("efh", _SL2_FORWARD), 4, [0, 0, 5, 15, 38]),
], ids=["lee-yang", "ising", "degenerate-heisenberg", "virasoro-plus-current",
        "affine-sl2-level-1"])
def test_radical_matches_lowering_word_definition(doc, w_max, dims):
    # the radical is defined as the common kernel of every product of
    # lowering modes followed by the vacuum coefficient; the products are
    # straightened here with the independent bubble strategy
    pres = load_presentation(doc)
    slices = radical_slices(pres, w_max)
    assert [rs.weight for rs in slices] == list(range(w_max + 1))
    got = []
    for w, rs in enumerate(slices):
        words = _lowering_words(pres, w) if w else [[]]

        def vacuum_coefficients(el):
            out = []
            for word in words:
                row = Fraction(0)
                for modes, c in el.terms.items():
                    image = pres.element({tuple(word) + modes: c})
                    row += _bubble_nf(pres, image).vacuum_coefficient()
                out.append(row)
            return out

        columns = [vacuum_coefficients(pres.element({b: Fraction(1)})) for b in rs.basis]
        matrix = [list(row) for row in zip(*columns)]
        assert rs.dimension == len(rs.basis) - _rank(matrix)
        for vec in rs.kernel:
            assert not any(vacuum_coefficients(vec))
        got.append(rs.dimension)
    assert got == dims


@pytest.mark.parametrize("c", ["1", "1/2", "-22/5", "-68/7", "0"])
def test_lowering_generators_virasoro(c):
    # [L_1, L_n] = (1 - n) L_(n+1), so L_1 and L_2 generate; L_2 is not a
    # bracket, since [L_1, L_1] = 0
    vir = preset_virasoro(Fraction(c))
    assert _lowering_generators(vir, 12) == [(0, 1), (0, 2)]
    assert _lowering_generators(vir, 1) == [(0, 1)]
    assert _lowering_generators(vir, 0) == []


@pytest.mark.parametrize("pres", [
    preset_heisenberg(1), preset_heisenberg(2), preset_heisenberg(3),
    preset_heisenberg(2, [[1, 1], [1, 1]]), preset_heisenberg(2, [[0, 1], [1, 0]]),
], ids=["rank-1", "rank-2", "rank-3", "degenerate", "off-diagonal"])
def test_lowering_generators_heisenberg(pres):
    # every bracket of two lowering modes is central and would need a drop
    # of zero, so no mode is a bracket and every one is imposed
    rank = len(pres.gens)
    assert _lowering_generators(pres, 6) == [(g, d) for d in range(1, 7) for g in range(rank)]


def test_lowering_generators_affine_sl2():
    # [x(1), y(d-1)] = [x,y](d), and [e,f], [h,e], [h,f] span sl2 again
    sl2 = load_presentation(_doc("efh", _SL2_FORWARD))
    assert _lowering_generators(sl2, 8) == [(0, 1), (1, 1), (2, 1)]


def test_lowering_generators_virasoro_plus_current():
    # with L_n = L(n+1) and J_n = J(n) the table gives [L_m, J_n] = -n J_(m+n)
    # and [J_m, J_n] = 0.  Drop 1: L_1, J_1.  Drop 2: the brackets are
    # [L_1, L_1] = 0, [L_1, J_1] = -J_2, [J_1, L_1] = J_2 and [J_1, J_1] = 0,
    # so L_2 is kept and J_2 is not.  Drop d >= 3: [L_1, L_(d-1)] =
    # (2 - d) L_d and [L_1, J_(d-1)] = (1 - d) J_d, so nothing is kept.
    lj = load_presentation(_LJ_DOC)
    assert _lowering_generators(lj, 8) == [(0, 1), (1, 1), (0, 2)]


@pytest.mark.parametrize("make, arg", [
    *((preset_virasoro, 1 - Fraction(6 * (q - p) ** 2, p * q))
      for p, q in ((2, 5), (3, 4), (2, 7), (4, 5))),
    (preset_heisenberg, 2),
], ids=["lee-yang", "ising", "c=-68/7", "tricritical", "rank-2"])
def test_prepend_mode_is_the_word_level_rewrite_step(make, arg):
    pres = make(arg)
    lowering = _lowering_generators(pres, 6)
    for u in range(7):
        for b in spanning_basis(pres, u):
            for g, d in lowering:
                m = pres.wt(g) + d - 1
                assert pres.prepend_mode(g, m, b) == pres._act(g, m, {b: 1})
    # prepend_mode hands out the rewrite cache's own dicts; the radical must
    # leave every one of them as a fresh presentation computes it
    pres = make(arg)
    radical_slices(pres, 8)
    fresh = make(arg)
    assert pres._prepend_cache
    for key, value in pres._prepend_cache.items():
        assert value == fresh._prepend(*key), key


def test_rewrite_cache_stores_integral_values_as_ints():
    # sums such as 1/2 + 1/2 in the rewrite cache come out as int 1, not as
    # Fraction(1, 1); the c = 1 weight-11 radical makes ten of them
    pres = preset_virasoro(1)
    radical_slice(pres, 11)
    values = [v for entry in pres._prepend_cache.values() for v in entry.values()]
    assert any(type(v) is Fraction for v in values)
    assert all(type(v) is int or v.denominator > 1 for v in values)


@pytest.mark.parametrize("doc, weight", [
    ({"preset": "virasoro", "c": "-22/5"}, 8),
    ({"preset": "heisenberg", "rank": 2, "form": [[0, 0], [0, 1]]}, 4),
    (_doc("efh", _SL2_FORWARD), 4),
], ids=["lee-yang", "degenerate-heisenberg", "affine-sl2-level-1"])
def test_radical_slice_is_the_top_of_radical_slices(doc, weight):
    # radical_slice builds elements for its own weight only; the two
    # Heisenberg-type cases have a nonzero radical below the top weight
    pres = load_presentation(doc)
    top = radical_slice(pres, weight)
    last = radical_slices(pres, weight)[-1]
    assert (top.weight, top.basis, top.kernel) == (last.weight, last.basis, last.kernel)
    assert radical_slices(pres, -1) == []
    assert radical_slice(pres, -1).dimension == 0


def test_under_generating_set_changes_checked_dims(monkeypatch):
    # dropping L_2 leaves L_1 alone, which also annihilates the generator
    # L = L(-1)1 at weight 2, so the radical dims pinned above and by
    # criterion 11 must move
    real = _lowering_generators
    monkeypatch.setattr(
        vacore, "_lowering_generators",
        lambda pres, top: [gd for gd in real(pres, top) if gd != (0, 2)],
    )
    ly = preset_virasoro(Fraction(-22, 5))
    assert [rs.dimension for rs in radical_slices(ly, 4)] != [0, 0, 0, 0, 1]
    assert radical_slice(ly, 4).dimension != 1


@pytest.mark.parametrize("doc, w_max", [
    *(({"preset": "heisenberg", "rank": r}, w) for r, w in ((1, 8), (2, 6), (3, 5))),
    *(({"preset": "heisenberg", "rank": 2, "form": f}, 6)
      for f in ([[0, 0], [0, 1]], [[1, 1], [1, 1]], [[0, 1], [1, 0]])),
    *(({"preset": "virasoro", "c": c}, 10) for c in ("1", "1/2", "-22/5", "-68/7", "0")),
    (_LJ_DOC, 6),
    (_doc("efh", _SL2_FORWARD), 5),
], ids=["rank-1", "rank-2", "rank-3", "form-00-01", "form-11-11", "form-01-10",
        "c=1", "c=1/2", "c=-22/5", "c=-68/7", "c=0", "virasoro-plus-current",
        "affine-sl2-level-1"])
def test_radical_matches_stacked_reference(doc, w_max):
    # skipping the words that earlier generators force to 0 changes neither
    # the basis, the dimension nor a kernel vector
    pres = load_presentation(doc)
    got = [(rs.weight, rs.basis, rs.kernel) for rs in radical_slices(pres, w_max)]
    assert got == radical_stacked(pres, w_max)


@pytest.mark.parametrize("pres, weight, calls", [
    # 2,493 calls when every generator straightens every word
    (preset_heisenberg(3), 5, 462),
    # 82 calls when every generator straightens every word
    (preset_virasoro(Fraction(-22, 5)), 10, 81),
], ids=["heisenberg-rank-3", "lee-yang"])
def test_radical_straightens_only_unforced_words(monkeypatch, pres, weight, calls):
    # a word whose coefficient earlier generators force to 0 in every kernel
    # vector is not straightened under the later ones
    real = pres.prepend_mode
    seen = []
    monkeypatch.setattr(pres, "prepend_mode", lambda *key: seen.append(key) or real(*key))
    radical_slice(pres, weight)
    assert len(seen) == calls


def test_radical_word_bound_raises_resource_limit(monkeypatch):
    # the top weight's spanning words are counted before any is listed
    hei = preset_heisenberg(3)
    monkeypatch.setattr(vacore, "spanning_basis", lambda *a: pytest.fail("listed words"))
    with pytest.raises(ResourceLimit, match="would list 7868 spanning words at one weight") as exc:
        radical_slice(hei, 12)
    assert exc.value.payload() == {"bound": vacore._RADICAL_WORD_BOUND,
                                   "cache_entries": None, "predicted": 7868}
    assert not hei._prepend_cache
    monkeypatch.setattr(vacore, "_RADICAL_WORD_BOUND", 107)
    with pytest.raises(ResourceLimit, match="bound of 107"):
        radical_slices(hei, 5)


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


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), Fraction(-22, 5)])
def test_npoint_virasoro_three_point(c):
    # <T T T> = c / ((z1-z2)(z1-z3)(z2-z3))^2.  Two of the four monomials of
    # its canonical form fail in_connective on their own; the sum passes.
    pres = preset_virasoro(c)
    got = npoint_vacuum(pres, ["L", "L", "L"], 6)
    assert got == lf("(z2-z1)^-2*(z3-z1)^-2*(z3-z2)^-2", 3).scale(c)
    sig = SortSignature(0, (2, 2, 2))
    assert in_connective(got, 0, sig)
    assert not all(in_connective(LocalFn.from_monomial(3, m), 0, sig) for m in got.terms)


def test_npoint_virasoro_three_point_series_against_oracle(vir1):
    # coefficient of z1 z2^-3 z3^-4 on |z3| > |z2| > |z1|, i.e. the vacuum
    # component of L(3) L(2) L(-2) 1 in field modes, from the free-boson
    # realization at c = 1
    got = npoint_vacuum(vir1, ["L", "L", "L"], 6)
    exps = (1, -3, -4)
    value = sum(c * _mono_series_coeff(m, exps) for m, c in got.terms.items())
    oracle = F.virasoro_word([-e - 1 for e in reversed(exps)]).get(F.VACUUM, 0)
    assert value == oracle == 2


def test_npoint_scaled_form():
    scaled = preset_heisenberg(1, [[Fraction(3)]])
    assert npoint_vacuum(scaled, ["a", "a"], 2) == lf("(z2-z1)^-2", 2).scale(3)


@pytest.mark.parametrize(
    "rank, gens, want",
    [
        (3, "a1,a2,a1,a2", "(z3-z1)^-2*(z4-z2)^-2"),
        (2, "a1,a1,a2,a2", "(z2-z1)^-2*(z4-z3)^-2"),
        (3, "a2,a1,a3,a1", None),
        (3, "a1,a2,a3", None),
        (1, "a,a,a", None),
    ],
)
def test_npoint_multi_generator_heisenberg(rank, gens, want):
    # Wick pairings of orthonormal currents: only equal generators contract
    gens = gens.split(",")
    got = npoint_vacuum(preset_heisenberg(rank), gens, len(gens))
    assert got == (lf(want, len(gens)) if want else LocalFn(len(gens), {}))


def test_npoint_errors(hei):
    with pytest.raises(BadPartition):
        npoint_vacuum(hei, ["a"] * 5, 4)
    with pytest.raises(NoLocalMatch) as err:
        # pole bound too small to host the two-point function: no candidate
        # at all, and the first window (radius 1 + 2 + 1) is inconsistent
        npoint_vacuum(hei, ["a", "a"], 1)
    assert (err.value.radius, err.value.candidates, err.value.exponents) == (4, 0, None)


def test_npoint_verification_mismatch_reports_exponents(hei, monkeypatch):
    # a solve that returns the zero function disagrees with the series of
    # a(-e2-1) a(-e1-1) 1, which is e1 + 1 for e1 >= 0; the first such tuple
    # of the radius-7 verification window is (0, -2).  The kernel below has
    # the right-hand side column as its only free column, and no candidate
    # entry, so the solve reads every coefficient as 0
    monkeypatch.setattr(vacore, "_kernel", lambda rows, n: (1, {n - 1: {n - 1: 1}}))
    with pytest.raises(NoLocalMatch) as err:
        npoint_vacuum(hei, ["a", "a"], 2)
    assert err.value.exponents == (0, -2)
    assert err.value.radius == 7
    assert err.value.candidates == len(basis_monomials(2, 2, 2))


# ---------------------------------------------------------------------------
# correlators by the Ward recursion, against independent routes
# ---------------------------------------------------------------------------

def _pairings(points):
    """Every perfect matching of the points, as lists of pairs."""
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    return [
        [(first, q)] + tail
        for j, q in enumerate(rest)
        for tail in _pairings(rest[:j] + rest[j + 1:])
    ]


def _pairing_sum(n, power, points=None):
    """Sum over perfect matchings of the points (default 1..n) of
    prod (z_j - z_i)^-power, as a LocalFn of arity n built from text."""
    texts = ["*".join(f"(z{j}-z{i})^-{power}" for i, j in pairs)
             for pairs in _pairings(points or list(range(1, n + 1)))]
    return sum((lf(t, n) for t in texts), LocalFn(n, {}))


def _window(r, radius, total):
    """Every exponent tuple of length r with entries in [-radius, radius]
    summing to total, in lexicographic order: a product over the first
    r - 1 entries, with the last one fixed by the total."""
    out = []
    for head in product(range(-radius, radius + 1), repeat=r - 1):
        last = total - sum(head)
        if -radius <= last <= radius:
            out.append(head + (last,))
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ward_matches_ansatz_heisenberg(rank):
    pres = preset_heisenberg(rank)
    for arity in (2, 3, 4):
        for gens in product(pres.names, repeat=arity):
            assert ward_correlator(pres, gens) == npoint_vacuum(pres, gens, arity), gens


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), Fraction(-22, 5)])
def test_ward_matches_ansatz_virasoro(c):
    pres = preset_virasoro(c)
    arities = (2, 3, 4) if c == 1 else (2, 3)
    for r in arities:
        assert ward_correlator(pres, ["L"] * r) == npoint_vacuum(pres, ["L"] * r, 2 * r)


def test_ward_heisenberg_six_and_eight_points_are_wick_sums(hei):
    assert len(_pairings(list(range(6)))) == 15
    assert len(_pairings(list(range(8)))) == 105
    for n in (6, 8):
        assert ward_correlator(hei, ["a"] * n) == _pairing_sum(n, 2)
    # the rank-2 currents a1, a2 are orthogonal, so only equal ones pair up
    mixed = ward_correlator(preset_heisenberg(2), ["a1", "a2", "a1", "a1", "a2", "a1"])
    assert mixed == _pairing_sum(6, 2, [1, 3, 4, 6]) * _pairing_sum(6, 2, [2, 5])


def test_ward_virasoro_five_point_series_against_oracle(vir1):
    # every coefficient of the radius-4 window on |z5| > ... > |z1| against
    # the vacuum component of the word in the free-boson realization
    got = ward_correlator(vir1, ["L"] * 5)
    nonzero = 0
    for e in _window(5, 4, -10):
        value = sum(c * _mono_series_coeff(m, e) for m, c in got.terms.items())
        oracle = F.virasoro_word([-x - 1 for x in reversed(e)]).get(F.VACUUM, 0)
        assert value == oracle, e
        nonzero += oracle != 0
    assert nonzero > 0


def test_ward_virasoro_four_point_by_powers_of_c():
    # <TTTT> = c^2 (1/2)^2 sum over pairings of (z_ij z_kl)^-4 + c (connected);
    # read the powers of c off three central charges
    f1, f2, f3 = (ward_correlator(preset_virasoro(c), ["L"] * 4) for c in (1, 2, 3))
    constant = f1.scale(3) - f2.scale(3) + f3
    square = (f1 - f2.scale(2) + f3).scale(Fraction(1, 2))
    assert constant == LocalFn(4, {})
    assert square == _pairing_sum(4, 4).scale(Fraction(1, 4))
    # the linear part is the sum over the three 4-cycles of (z_ij z_jk z_kl z_li)^-2
    cycles = sum(
        (lf(t, 4) for t in (
            "(z2-z1)^-2*(z3-z2)^-2*(z4-z3)^-2*(z4-z1)^-2",
            "(z2-z1)^-2*(z4-z2)^-2*(z4-z3)^-2*(z3-z1)^-2",
            "(z3-z1)^-2*(z3-z2)^-2*(z4-z2)^-2*(z4-z1)^-2",
        )),
        LocalFn(4, {}),
    )
    assert f1 - square == cycles


@pytest.mark.parametrize(
    "mutant",
    [
        lambda kernel: lambda r, i, p, mode, m: -kernel(r, i, p, mode, m),
        lambda kernel: lambda r, i, p, mode, m: kernel(r, i, p, mode, m).scale(
            Fraction(gbinom(-mode, m), gbinom(mode, m))
        ),
    ],
    ids=["sign", "binomial"],
)
def test_npoint_ward_certificate_rejects_mutants(mutant, monkeypatch):
    # a wrong sign or C(k+1, m) for C(-k-1, m) keeps the monomials, so the
    # pole bound passes and the series window catches the mismatch
    monkeypatch.setattr(vacore, "_ward_kernel", mutant(vacore._ward_kernel))
    # the window radius is R0 + 2 with R0 = pole bound + total weight + 1
    # (a sign error cancels on a path with an even number of steps, so the
    # four-point function, whose paths take two or three, is the Virasoro case)
    for pres, gens, bound, radius in ((preset_heisenberg(), ["a", "a"], 2, 7),
                                      (preset_virasoro(Fraction(1, 2)), ["L"] * 4, 8, 19)):
        with pytest.raises(NoLocalMatch) as err:
            npoint_ward(pres, gens, bound)
        assert err.value.exponents is not None
        assert err.value.radius == radius


def test_ward_needs_positive_weights():
    # a weight-0 generator could leave a residue at infinity
    pres = load_presentation({"generators": [{"name": "x", "weight": 0}]})
    with pytest.raises(SchemaError, match="weights >= 1"):
        ward_correlator(pres, ["x", "x"])


def test_npoint_ward_errors_match_ansatz(hei):
    for route in (npoint_vacuum, npoint_ward):
        with pytest.raises(BadPartition):
            route(hei, ["a"] * 5, 4)
        with pytest.raises(SchemaError):
            route(hei, ["a", "a"], -1)
    for gens, bound in ((["a", "a"], 1), (["a"] * 4, 3)):
        errors = []
        for route in (npoint_vacuum, npoint_ward):
            with pytest.raises(NoLocalMatch) as err:
                route(hei, gens, bound)
            errors.append((str(err.value), err.value.radius, err.value.candidates,
                           err.value.exponents))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("direction", ["extra", "missing"])
def test_npoint_ward_certificate_catches_sparse_mismatches(direction, monkeypatch):
    # <a1 a2 a1 a2> = (z3-z1)^-2 (z4-z2)^-2 at rank 2; the window radius is
    # R0 + 2 = 11 with R0 = pole bound 4 + total weight 4 + 1
    pres = preset_heisenberg(2)
    gens = ["a1", "a2", "a1", "a2"]
    true = lf("(z3-z1)^-2*(z4-z2)^-2", 4)
    # (z2-z1)^-2 (z4-z3)^-2 expands with z2^(-2-s), so every one of its
    # tuples starts a1(-e1-1) a2(n) 1 with n = -e2-1 >= 1: the state after
    # two insertions is empty and the walk drops that subtree; the zero
    # function misses every nonzero tuple of the series
    extra = lf("(z2-z1)^-2*(z4-z3)^-2", 4)
    mutant = true + extra if direction == "extra" else LocalFn(4, {})
    monkeypatch.setattr(vacore, "ward_correlator", lambda pres, gen_names: mutant)
    with pytest.raises(NoLocalMatch) as err:
        npoint_ward(pres, gens, 4)
    e = next(
        e for e in _window(4, 11, -4)
        if sum(c * _mono_series_coeff(m, e) for m, c in (mutant - true).terms.items())
    )
    assert err.value.exponents == e
    assert err.value.radius == 11
    assert err.value.candidates == len(basis_monomials(4, 4, 4))
    gidx = [pres.gen_index(g) for g in gens]
    if direction == "extra":
        state = pres._prepend(gidx[0], -e[0] - 1, VACUUM_WORD)
        assert state and all(not pres._prepend(gidx[1], -e[1] - 1, w) for w in state)
        assert _bubble_series(pres, gidx, e) == 0
    else:
        assert _bubble_series(pres, gidx, e) != 0


def _bubble_series(pres, gidx, e):
    word = tuple((gidx[i], -e[i] - 1) for i in reversed(range(len(gidx))))
    return _bubble_nf(pres, VAElement(pres, {word: Fraction(1)})).vacuum_coefficient()


@pytest.mark.parametrize(
    "pres, gens, radius",
    [
        (preset_heisenberg(2), ["a1", "a2", "a1", "a2"], 3),
        (preset_heisenberg(2), ["a1", "a1", "a2", "a2"], 3),
        (preset_heisenberg(2), ["a2", "a1", "a1", "a2"], 3),
        (preset_virasoro(Fraction(-22, 5)), ["L", "L", "L"], 4),
        (preset_virasoro(Fraction(-22, 5)), ["L", "L", "L"], 5),
    ],
)
def test_vacuum_series_matches_bubble_rewriting(pres, gens, radius):
    # every tuple of one window, zeros included, against the worklist
    # strategy applied to each word on its own; the walk keeps only nonzero
    # values, and only at tuples of the window.  At radius 4 every nonzero
    # Virasoro tuple has e_3 = -4; radius 5 adds words such as L(4)L(0)L(-1)1,
    # where modes that annihilate the vacuum stand left of a creation mode,
    # so the table's derivative terms reach the vacuum coefficient
    gidx = [pres.gen_index(g) for g in gens]
    total = -sum(pres.wt(g) for g in gidx)
    window = _window(len(gens), radius, total)
    series = _vacuum_series_support(pres, gidx, radius, total)
    assert set(series) <= set(window)
    assert all(series.values()) and series
    for e in window:
        assert series.get(e, 0) == _bubble_series(pres, gidx, e), e


def test_vacuum_series_matches_oracle_at_c_one(vir1):
    # four-point coefficients against the free-boson realization, read off
    # one walk of the radius-6 window that holds all five tuples
    window = [(0, 0, -3, -5), (1, -2, -2, -5), (0, 0, -2, -6), (2, -1, -4, -5), (-1, 1, -2, -6)]
    series = _vacuum_series_support(vir1, [0] * 4, 6, -8)
    got = [series.get(e, 0) for e in window]
    want = [F.virasoro_word([-x - 1 for x in reversed(e)]).get(F.VACUUM, 0) for e in window]
    assert got == want and any(want)


# ---------------------------------------------------------------------------
# the sign-symmetry selection rule
# ---------------------------------------------------------------------------

_SIGN_PRESETS = {
    "rank-1": lambda: preset_heisenberg(1),
    "rank-2": lambda: preset_heisenberg(2),
    "rank-3": lambda: preset_heisenberg(3),
    "form-11-11": lambda: preset_heisenberg(2, [[1, 1], [1, 1]]),
    "form-01-10": lambda: preset_heisenberg(2, [[0, 1], [1, 0]]),
    "form-00-01": lambda: preset_heisenberg(2, [[0, 0], [0, 1]]),
    "virasoro-1/2": lambda: preset_virasoro(Fraction(1, 2)),
    "virasoro-22/5": lambda: preset_virasoro(Fraction(-22, 5)),
    "sl2": lambda: load_presentation(_doc("efh", _SL2_FORWARD)),
}


def _table_sign_flips(pres):
    """Every x in {0,1}^n whose sign flip g -> (-1)^(x_g) g fixes every
    table entry: [a,b]_n = sum c_w w goes to (-1)^(x_a+x_b) [a,b]_n on one
    side and to sum c_w (-1)^(x of w's letters) w on the other."""
    flips = []
    for x in product((0, 1), repeat=len(pres.gens)):
        if all(
            {w: (-1) ** (x[a] + x[b] + sum(x[g] for g, _ in w)) * c for w, c in entry.items()}
            == entry
            for (a, b), row in pres.ope.items()
            for entry in row.values()
        ):
            flips.append(x)
    return flips


@pytest.mark.parametrize("name, independent", [
    ("rank-1", 1), ("rank-2", 2), ("rank-3", 3),
    ("form-11-11", 1), ("form-01-10", 1), ("form-00-01", 2),
    ("virasoro-1/2", 0), ("virasoro-22/5", 0), ("sl2", 1),
])
def test_parity_rule_matches_brute_force_sign_flips(name, independent):
    # the rule fires on a generator tuple exactly when some table-fixing
    # sign flip makes the tuple odd, over all 2^n sign vectors
    pres = _SIGN_PRESETS[name]()
    flips = _table_sign_flips(pres)
    assert len(flips) == 2 ** independent
    if name == "sl2":
        assert flips == [(0, 0, 0), (1, 1, 0)]  # e and f flip together
    n = len(pres.gens)
    for k in range(0, 4):
        for gidx in product(range(n), repeat=k):
            odd = any(sum(x[g] for g in gidx) % 2 for x in flips)
            assert pres._parity_forbids(gidx) == odd, gidx


@pytest.mark.parametrize("name, arity, odd_tuples", [
    ("rank-1", 4, 2), ("rank-2", 4, 20), ("rank-3", 4, 96),
    ("form-11-11", 4, 10), ("form-01-10", 4, 10), ("form-00-01", 4, 20),
    ("sl2", 3, 20),
])
def test_parity_rule_agrees_with_the_walk(name, arity, odd_tuples, monkeypatch):
    # with the rule switched off, the walk of the certificate's window
    # (pole bound = total weight) finds no nonzero tuple where the rule fires
    pres = _SIGN_PRESETS[name]()
    n = len(pres.gens)
    odd = [gidx for r in range(1, arity + 1) for gidx in product(range(n), repeat=r)
           if pres._parity_forbids(gidx)]
    assert len(odd) == odd_tuples
    monkeypatch.setattr(Presentation, "_parity_forbids", lambda self, gidx: False)
    for gidx in odd:
        total = sum(pres.wt(g) for g in gidx)
        assert _vacuum_series_support(pres, gidx, 2 * total + 3, -total) == {}, gidx


def test_parity_rule_mutant_breaks_the_certificate(monkeypatch):
    # a GF(2) reduction that never reduces leaves the row e_L of
    # [L,L]_0 = TL out of the span and calls L odd; the Ward route then
    # disagrees with the (now empty) series on the window
    pres = preset_virasoro(Fraction(1, 2))
    assert not pres._parity_forbids([0, 0, 0])
    npoint_ward(pres, ["L"] * 3, 6)
    monkeypatch.setattr(vacore, "_gf2_reduce", lambda v, e: v)
    assert pres._parity_forbids([0, 0, 0])
    with pytest.raises(NoLocalMatch) as err:
        npoint_ward(pres, ["L"] * 3, 6)
    assert err.value.exponents is not None


def test_series_support_matches_closed_form():
    # the sparse rows of the correlator solve against the closed-form lookup,
    # on windows that cut through the support and, below four points, on
    # npoint's first window (four points stay at radius 2 to keep the brute
    # force over the window affordable)
    for r in range(1, 5):
        for b in range(0, 5):
            for g in range(-1, b + 1):
                for radius in sorted({1, b + abs(g) + 1} if r < 4 else {2}):
                    window = _window(r, radius, -g)
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

    _, kernel = _kernel([dict(enumerate(row)) for row in mat], ncols)
    assert len(kernel) == ncols - rank
    dense = [[Fraction(vec.get(c, 0)) for c in range(ncols)] for vec in kernel.values()]
    assert _rank(dense) == len(kernel)
    for vec in dense:
        for row in mat:
            assert sum(a * x for a, x in zip(row, vec)) == 0

    # the solve of npoint_vacuum: the kernel of the augmented rows
    scale, kernel = _kernel([dict(enumerate(row)) for row in aug], ncols + 1)
    if _rank(aug) > rank:
        assert ncols not in kernel
    elif rank < ncols:
        assert ncols in kernel and len(kernel) > 1
    else:
        assert list(kernel) == [ncols]
        sol = [Fraction(-kernel[ncols].get(c, 0), scale) for c in range(ncols)]
        for row in aug:
            assert sum(a * x for a, x in zip(row, sol)) == row[ncols]


# ---------------------------------------------------------------------------
# rank-1 lattice
# ---------------------------------------------------------------------------

def test_lattice_check_passes():
    rep = lattice_check(4)
    assert rep["failures"] == 0
    kinds = {c["kind"] for c in rep["checks"]}
    assert {"regularity", "unit-product", "graded-dims", "leading-term"} <= kinds


def test_lattice_check_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        lattice_check(3)


def test_lattice_is_not_a_presentation():
    # the lattice has no singular-product table; lattice_check realizes it
    with pytest.raises(SchemaError, match="unknown preset 'lattice_rank1'"):
        load_presentation({"preset": "lattice_rank1"})
    with pytest.raises(SystemExit) as exc:
        cli.run(["dims", "--preset", "lattice_rank1", "--max-weight", "3"])
    assert exc.value.code == 2


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
    # the bound counts the bubble strategy's rewrite steps
    tiny = Presentation(
        [("L", 2)],
        {(0, 0): {0: {((0, -2),): 1}, 1: {((0, -1),): 2}, 3: {VACUUM_WORD: Fraction(1, 2)}}},
        {"c": Fraction(1)},
    )
    deep = tiny.element({tuple([(0, -6 + i) for i in range(6)]): Fraction(1)})
    with pytest.raises(NonTerminating) as exc:
        _bubble_nf(tiny, deep, bound=5)
    assert exc.value.payload() == {"bound": 5, "word": "L(-6)L(-5)L(-4)L(-3)L(-2)L(-1)1"}


def test_rewrite_cache_bound_raises_resource_limit(vir, monkeypatch):
    word = {tuple((0, -6 + i) for i in range(6)): Fraction(1)}
    small = Presentation(
        [("L", 2)],
        {(0, 0): {0: {((0, -2),): 1}, 1: {((0, -1),): 2}, 3: {VACUUM_WORD: vir.central["c"] / 2}}},
        vir.central,
    )
    with monkeypatch.context() as patch:
        patch.setattr(vacore, "_STEP_BOUND", 5)
        with pytest.raises(ResourceLimit, match="step bound of 5 entries") as exc:
            small.normal_form(small.element(word))
    assert exc.value.payload() == {"bound": 5, "cache_entries": 6, "predicted": None}
    # under the default bound the same word straightens: too big, not endless
    assert not vir.normal_form(vir.element(word)).is_zero()


def test_error_payloads_are_the_declared_fields():
    err = NoLocalMatch("no match", radius=3, exponents=(0, -2))
    assert (err.radius, err.candidates, err.exponents) == (3, None, (0, -2))
    assert err.payload() == {"radius": 3, "candidates": None, "exponents": [0, -2]}
    assert SchemaError("plain").payload() == {}
    with pytest.raises(TypeError, match="NoLocalMatch has no field 'bogus'"):
        NoLocalMatch("no match", radius=3, bogus=1)
