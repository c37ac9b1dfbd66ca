"""Vertex algebras presented by generators and relations.

States are rational combinations of mode words b_1(n_1)...b_k(n_k)1 over the
generators of a presentation.  The singular products [a, b]_n = a(n)b for
n >= 0 are table data; everything else is computed by straightening with the
commutator rule

    a(m) b(k)  =  b(k) a(m)  +  sum_{j>=0} C(m, j) ([a, b]_j)(m+k-j)

until all words satisfy the normal-form condition: modes negative and weakly
decreasing left to right, ties broken by descending generator order, applied
to the vacuum.  Table entries are combinations of derivatives of generators
and of the vacuum, so every correction term is strictly shorter and the
rewriting terminates.

Mode conventions (used consistently here and in fockoracle):

* fields expand as a(z) = sum_n a(n) z^(-n-1), so a(n) maps weight w to
  w + wt(a) - n - 1 and the generator itself is a(-1)1;
* the translation operator T acts by (Ta)(n) = -n a(n-1) and T1 = 0, so
  T^s a = s! a(-1-s)1;
* words of negative weight are zero.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import comb
from typing import Dict, List, Sequence, Tuple

from .cooperad import SortSignature, in_connective
from .errors import (
    BadPartition,
    JacobiViolation,
    NoLocalMatch,
    ResourceLimit,
    SchemaError,
    UnboundedOPE,
    WeightMismatch,
)
from .localfn import (
    LocalFn,
    MonomialBasis,
    _gterm_mul,
    _mono_to_gterm,
    _reduce,
    basis_monomials,
    mono_grading,
    mono_pole_total,
)
from .numutil import (
    SparseSum,
    _cross_reduce,
    _echelon,
    _exact,
    _kernel,
    add_into,
    gbinom,
)

Word = Tuple[Tuple[int, int], ...]  # (generator, mode) pairs, applied to 1

VACUUM_WORD: Word = ()

_MAX_SINGULAR = 64

# Entries the rewrite cache of one presentation may hold before _prepend
# raises ResourceLimit; read at call time.
_STEP_BOUND = 10**6

# Spanning words one weight of a radical may have before _radical_kernels
# raises ResourceLimit; read at call time.
_RADICAL_WORD_BOUND = 2000


def _gf2_reduce(v: int, echelon: Dict[int, int]) -> int:
    """The bitmask v reduced over GF(2) by an echelon {leading bit: row};
    0 exactly when v is in the rows' span."""
    while v:
        row = echelon.get(v.bit_length() - 1)
        if row is None:
            break
        v ^= row
    return v


class VAElement(SparseSum):
    """Rational combination of mode words, bound to one presentation.

    Coefficients are ints where the given value is an int and Fractions
    otherwise; str, == and hash agree between the two types."""

    __slots__ = ("pres",)
    _space_name = "presentation"
    _sort_key = staticmethod(lambda word: word)

    def __init__(self, pres: "Presentation", terms: Dict[Word, int | Fraction]):
        self.pres = pres
        self.terms = {
            w: c if type(c) is int else Fraction(c) for w, c in terms.items() if c != 0
        }

    @property
    def _space(self):
        return self.pres

    def weight(self):
        """Weight of a homogeneous element; None for 0."""
        weights = {self.pres.word_weight(w) for w in self.terms}
        if not weights:
            return None
        if len(weights) > 1:
            raise WeightMismatch(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def vacuum_coefficient(self) -> int | Fraction:
        return self.terms.get(VACUUM_WORD, 0)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for word, c in self.sorted_terms():
            body = self.pres.word_str(word)
            bits.append(body if c == 1 else f"{c} * {body}")
        return " + ".join(bits)

    def __repr__(self):
        return f"VAElement({self!s})"

    def to_obj(self):
        out = []
        for word, c in self.sorted_terms():
            out.append(
                {
                    "coeff": str(c),
                    "word": [[self.pres.gen_name(g), n] for g, n in word],
                    "tail": "vacuum",
                }
            )
        return out


class Presentation:
    """Generators with weights, a complete singular-product table and
    central parameters.

    The constructor stores its arguments and checks nothing.  The table
    `ope` maps each ordered generator pair (a, b) with a nonzero singular
    product to its row {n: [a, b]_n}, with [a, b]_n = {word: coeff}.  Every
    row ascends in n and holds no zero entry, coefficients are ints where
    integral and Fractions otherwise, and the table is closed under skew
    symmetry: a pair's reverse row is present and agrees with it.
    load_presentation builds such a table from an explicit document and
    checks it; the presets write theirs complete, and the tests check each
    one against its explicit document.
    """

    def __init__(
        self,
        generators: Sequence[Tuple[str, int]],
        ope: Dict[Tuple[int, int], Dict[int, Dict[Word, int | Fraction]]],
        central: Dict[str, Fraction],
        label: str = "custom",
    ):
        self.gens = list(generators)
        self.names = [name for name, _ in self.gens]
        self.weights = [w for _, w in self.gens]
        self.name2idx = {name: i for i, name in enumerate(self.names)}
        self.central = dict(central)
        self.label = label
        self.ope = ope
        self._prepend_cache: Dict[tuple, Dict[Word, int | Fraction]] = {}
        self._table_mode_cache: Dict[tuple, tuple] = {}

    # -- bookkeeping -------------------------------------------------------

    def __str__(self):
        return self.label

    def gen_index(self, name: str) -> int:
        if name not in self.name2idx:
            raise SchemaError(f"unknown generator {name!r}")
        return self.name2idx[name]

    def gen_name(self, idx: int) -> str:
        return self.names[idx]

    def wt(self, idx: int) -> int:
        return self.weights[idx]

    def word_weight(self, word: Word) -> int:
        weights = self.weights
        w = 0
        for g, n in word:
            w += weights[g] - n - 1
        return w

    def word_str(self, word: Word) -> str:
        return "".join(f"{self.gen_name(g)}({n})" for g, n in word) + "1"

    def element(self, terms: Dict[Word, int | Fraction]) -> VAElement:
        return VAElement(self, terms)

    def zero(self) -> VAElement:
        return VAElement(self, {})

    def vacuum(self) -> VAElement:
        return VAElement(self, {VACUUM_WORD: 1})

    def gen_element(self, name: str) -> VAElement:
        g = self.gen_index(name)
        return VAElement(self, {((g, -1),): 1})

    # -- the sign-symmetry selection rule -----------------------------------

    def _parity_forbids(self, gidx: Sequence[int]) -> bool:
        """True when the table's sign symmetry forces the vacuum coefficient
        of every product g_r(n_r) ... g_1(n_1) 1 to zero, g_i = gidx[i-1].

        Over GF(2), with one coordinate per generator, each word w of each
        table entry [a, b]_n gives the row e_a + e_b + e_gen(w), where a
        vacuum word has no e_gen(w) term.  The rows' echelon is built on
        every call, keyed by leading bit, as int bitmasks.  The
        insertions' parity is c = sum_i e_(g_i) mod 2, and the rule fires
        when c is not in the span of the rows.

        Why this is exact.  Take any x orthogonal to every row.  The sign
        flip g -> (-1)^(x_g) g fixes every table entry, so every _prepend
        and _act step keeps the x-parity sum_i x_(g_i) of the words it
        rewrites: the commuted term keeps the word's letters, a table term
        replaces g, h by one generator of parity x_g + x_h, and an identity
        term drops g, h with x_g + x_h = 0.  This uses no Jacobi identity.
        The vacuum has parity 0.  If c lies outside the row span, some such
        x has c.x = 1, so the product has odd x-parity and no vacuum
        component.
        """
        echelon: Dict[int, int] = {}
        for (a, b), row in self.ope.items():
            for entry in row.values():
                for word in entry:
                    v = (1 << a) ^ (1 << b) ^ ((1 << word[0][0]) if word else 0)
                    v = _gf2_reduce(v, echelon)
                    if v:
                        echelon[v.bit_length() - 1] = v
        c = 0
        for g in gidx:
            c ^= 1 << g
        return _gf2_reduce(c, echelon) != 0

    # -- straightening -----------------------------------------------------

    def _table_mode(self, a: int, b: int, j: int, N: int):
        """Mode N of the table entry [a, b]_j, memoized: list of (gen, mode,
        coeff) plus the identity coefficient (from vacuum words, delta at
        N == -1).

        The mode N of (1/s!) T^s g is (-1)^s C(N, s) g(N - s): the falling
        factorial N (N-1) ... (N-s+1) over s! is the integer C(N, s), so an
        int table coefficient gives an int coefficient."""
        key = (a, b, j, N)
        got = self._table_mode_cache.get(key)
        if got is not None:
            return got
        id_coeff = 0
        parts = []
        for word, c in self.ope[(a, b)][j].items():
            if not word:
                if N == -1:
                    id_coeff += c
                continue
            g, mode = word[0]
            s = -1 - mode  # the word is (1/s!) T^s g
            coeff = c * (-1) ** s * gbinom(N, s)
            if coeff:
                parts.append((g, N - s, coeff))
        got = self._table_mode_cache[key] = (parts, id_coeff)
        return got

    def _prepend(self, g: int, n: int, word: Word) -> Dict[Word, int | Fraction]:
        """Normal form of g(n) applied to a normal word.

        Memoized per presentation.  The weight bound is tested only for
        n >= wt(g): below that g(n) does not lower the weight, and a normal
        word has weight >= 0.  In the commute branch, the head h(m) of the
        word goes back in front of each word of g(n) rest through _act, one
        cached prepend per word, and the bracket terms follow.  The cache
        raises ResourceLimit once it holds more than _STEP_BOUND entries.
        """
        key = (g, n, word)
        cached = self._prepend_cache.get(key)
        if cached is not None:
            return cached
        out: Dict[Word, int | Fraction] = {}
        if n >= self.weights[g] and self.weights[g] - n - 1 + self.word_weight(word) < 0:
            pass
        elif not word:
            if n <= -1:
                out[((g, n),)] = 1
        else:
            h, m = word[0]
            if n <= -1 and (n > m or (n == m and g >= h)):
                out = {((g, n),) + word: 1}
            else:
                rest = word[1:]
                acc = self._act(h, m, self._prepend(g, n, rest))
                # own loop: memoized _mode_bracket is cold per Presentation (npoint wall_s +11%)
                for j in self.ope.get((g, h), {}):
                    cnj = gbinom(n, j)
                    if cnj == 0:
                        continue
                    parts, id_coeff = self._table_mode(g, h, j, n + m - j)
                    if id_coeff:
                        add_into(acc, {rest: id_coeff}, cnj)
                    for g2, n2, cc in parts:
                        add_into(acc, self._prepend(g2, n2, rest), cnj * cc)
                out = acc
        self._prepend_cache[key] = out
        if len(self._prepend_cache) > _STEP_BOUND:
            raise ResourceLimit(
                f"rewrite cache grew past the step bound of {_STEP_BOUND} entries",
                bound=_STEP_BOUND,
                cache_entries=len(self._prepend_cache),
            )
        return out

    def _act(self, g: int, n: int, state: Dict[Word, int | Fraction]):
        """Normal form of g(n) applied to a combination of normal words."""
        out: Dict[Word, int | Fraction] = {}
        for word, c in state.items():
            add_into(out, self._prepend(g, n, word), c)
        return out

    def _mode_bracket(self, a: int, p: int, b: int, q: int):
        """[a(p), b(q)] = sum_j C(p, j) ([a, b]_j)(p + q - j) for p, q >= 0,
        read off the table: {(gen, mode): coeff}.  Only mode -1 of a vacuum
        word gives an identity term, and C(p, j) != 0 needs j <= p, so every
        mode read here is p + q - j >= q >= 0 and none occurs."""
        modes: Dict[Tuple[int, int], int | Fraction] = {}
        for j in self.ope.get((a, b), {}):
            cpj = gbinom(p, j)
            if cpj:
                parts, _ = self._table_mode(a, b, j, p + q - j)
                add_into(modes, {(g, n): c for g, n, c in parts}, cpj)
        return modes

    def prepend_mode(self, g: int, n: int, word: Word) -> Dict[Word, int | Fraction]:
        """Normal form of g(n) applied to the normal word `word`, as
        {normal word: coefficient}.  The dict is the rewrite cache's own
        entry: read it, never change it."""
        return self._prepend(g, n, word)

    def normal_form(self, el: VAElement) -> VAElement:
        """Straighten each word from the vacuum up, one letter at a time."""
        out: Dict[Word, int | Fraction] = {}
        for word, c in el.terms.items():
            state: Dict[Word, int | Fraction] = {VACUUM_WORD: 1}
            for g, n in reversed(word):
                state = self._act(g, n, state)
            add_into(out, state, c)
        return VAElement(self, out)

    def word_element(self, modes) -> VAElement:
        """Normal form of an explicit mode word."""
        return self.normal_form(VAElement(self, {tuple(modes): 1}))

    # -- composite modes and the bracket calculus ---------------------------

    def _word_mode(self, uword: Word, K: int, xword: Word) -> Dict[Word, int | Fraction]:
        """u(K) applied to one normal word, for u a normal word.

        Words of length one are generator modes; longer words reduce with

        (g(m)v)(K) = sum_i (-1)^i C(m,i) [ g(m-i) (v(K+i) x)
                                           - (-1)^m v(m+K-i) (g(i) x) ].

        Every mode m of a normal word is <= -1 (bracket normal-forms u, and
        the recursion passes a suffix of it), so C(m, i) is never 0 and the
        sum over i runs up to the weight bounds alone.
        """
        if not uword:
            return {xword: 1} if K == -1 else {}
        g, m = uword[0]
        rest = uword[1:]
        if not rest and m == -1:
            return self._prepend(g, K, xword)
        out: Dict[Word, int | Fraction] = {}
        wt_v = self.word_weight(rest)
        wt_x = self.word_weight(xword)
        bound1 = wt_v + wt_x - K - 1
        bound2 = self.wt(g) + wt_x - 1
        sign_m = (-1) ** (m % 2)
        for i in range(0, max(bound1, bound2) + 1):
            c = (-1) ** (i % 2) * gbinom(m, i)
            if i <= bound1:
                add_into(out, self._act(g, m - i, self._word_mode(rest, K + i, xword)), c)
            if i <= bound2:
                gi = self._prepend(g, i, xword)
                for w2, c2 in gi.items():
                    add_into(out, self._word_mode(rest, m + K - i, w2), -sign_m * c * c2)
        return out

    def derivative(self, x: VAElement) -> VAElement:
        """Translation operator: T x = x(-2)1."""
        return self.bracket(x, self.vacuum(), -2)

    def bracket(self, a: VAElement, b: VAElement, n: int) -> VAElement:
        """a(n)b for arbitrary states a, b."""
        a = self.normal_form(a)
        b = self.normal_form(b)
        out: Dict[Word, int | Fraction] = {}
        for uw, cu in a.terms.items():
            for bw, cb in b.terms.items():
                add_into(out, self._word_mode(uw, n, bw), cu * cb)
        return VAElement(self, out)


# ---------------------------------------------------------------------------
# Spanning words, dimensions, singular products
# ---------------------------------------------------------------------------

def _require_positive_weights(pres: Presentation, what: str):
    if any(w < 1 for w in pres.weights):
        raise SchemaError(f"{what} needs all generator weights >= 1")


def spanning_basis(pres: Presentation, weight: int) -> List[Word]:
    """All normal-form words of the given weight, in lexicographic order.

    A normal-form word lists its letters (g, n) with (n, g) weakly
    decreasing, each lowering the remaining weight by wt(g) - n - 1 >= 1.
    The walk tries letters in increasing (generator, mode) order, each mode
    in the closed range that the remaining weight and the previous letter
    allow, so it emits the words in lexicographic order.
    """
    _require_positive_weights(pres, "spanning enumeration")
    out: List[Word] = []
    _spanning_walk(pres.weights, weight, len(pres.weights) - 1, -1, [], out)
    return out


def _spanning_walk(weights, remaining, prev_g, prev_n, acc, out):
    """Append to out every completion of the word prefix acc that spends
    the remaining weight, in spanning_basis's order."""
    if remaining == 0:
        out.append(tuple(acc))
        return
    for g, w in enumerate(weights):
        for n in range(w - 1 - remaining, min(w - 2, prev_n - (g > prev_g)) + 1):
            acc.append((g, n))
            _spanning_walk(weights, remaining - (w - n - 1), g, n, acc, out)
            acc.pop()


def graded_dims(pres: Presentation, w_max: int) -> List[int]:
    """Spanning-set cardinalities per weight (equal to true dimensions where
    an oracle realization certifies independence), counted without listing
    a word.

    A normal-form word is a multiset of letters g(n), n <= -1, and each
    letter adds d = wt(g) - n - 1 >= wt(g) to the weight, one letter per
    (g, d).  So dim_w is the coefficient of q^w in
    prod_g prod_(d >= wt(g)) (1 - q^d)^(-1), one coin-change pass per
    letter."""
    _require_positive_weights(pres, "spanning enumeration")
    dims = [1] + [0] * w_max if w_max >= 0 else []
    for w in pres.weights:
        for d in range(w, w_max + 1):
            for total in range(d, w_max + 1):
                dims[total] += dims[total - d]
    return dims


def ope_singular(pres: Presentation, a: str, b: str):
    """All nonzero singular products of two generators, as (n, element)."""
    ai, bi = pres.gen_index(a), pres.gen_index(b)
    return [(n, VAElement(pres, entry)) for n, entry in pres.ope.get((ai, bi), {}).items()]


def check_uniform_bound(pres: Presentation, a: str, b: str) -> int:
    """Largest n with a(n)b nonzero; -1 when the product is regular."""
    return max(pres.ope.get((pres.gen_index(a), pres.gen_index(b)), {}), default=-1)


# ---------------------------------------------------------------------------
# Radical slices
# ---------------------------------------------------------------------------

class RadicalSlice:
    __slots__ = ("weight", "basis", "kernel", "dimension")

    def __init__(self, weight, basis, kernel):
        self.weight = weight
        self.basis = basis
        self.kernel = kernel
        self.dimension = len(kernel)


def _lowering_generators(pres: Presentation, top: int) -> List[Tuple[int, int]]:
    """The (generator, drop) pairs g, d <= top whose lowering modes
    g(wt(g) + d - 1) generate every lowering mode up to drop top, sorted by
    drop and then by generator.

    Table entries are combinations of derivatives of generators and the
    vacuum, so the lowering modes g(m), m >= wt(g), span a Lie algebra L+
    graded by the drop d = m + 1 - wt(g), with the brackets of
    Presentation._mode_bracket, which have no identity term.  A set S of
    modes generates L+ exactly when it spans L+ modulo [L+, L+] in every
    drop, and then [L+, L+] is spanned by the brackets [s, x] with s in S.
    So drop by drop,
    D_d is the span of [s, x] for every kept s of drop d1 < d and every
    generator mode x of drop d - d1, and generator g is kept when its mode
    is not in D_d plus the modes of the generators before g, that is, when
    no vector of D_d has g as its last nonzero column.  The columns are
    numbered in reverse, so those are the columns that are not pivots of
    D_d's reduced echelon form (the pivots are the leading columns of its
    vectors).  Both facts about S rest on the Jacobi identity, which
    load_presentation checks for documents (_check_jacobi) and the tests
    check for every preset.  Virasoro keeps L(2) and L(3), that is L_1 and
    L_2; affine sl2 keeps its drop-1 modes and a Heisenberg algebra every
    mode.
    """
    ngen = len(pres.gens)
    out: List[Tuple[int, int]] = []
    for d in range(1, top + 1):
        rows = []
        for a, d1 in out:
            p = pres.wt(a) + d1 - 1
            for b in range(ngen):
                # vacuum words give only identity terms, and no bracket here has one
                if not any(w for entry in pres.ope.get((a, b), {}).values() for w in entry):
                    continue
                q = pres.wt(b) + d - d1 - 1
                modes = pres._mode_bracket(a, p, b, q)
                rows.append({ngen - 1 - g: c for (g, _), c in modes.items()})
        pivots = _echelon(rows)
        out.extend((g, d) for g in range(ngen) if ngen - 1 - g not in pivots)
    return out


def _radical_kernels(pres: Presentation, w_max: int):
    """Yield (u, basis, L, kernel) for every weight u = 0..w_max: the
    spanning basis of weight u and Rad_u as _kernel returns it over that
    basis, an integer echelon {free column f: row} with one scale L.

    Rad_u is the kernel of all lowering words, computed weight by weight
    from the generating lowering modes of _lowering_generators: Rad_0 = 0,
    and x of weight u lies in Rad_u exactly when s x lies in Rad_(u-d) for
    every generating mode s of drop d <= u.  Rad_(<u) is closed under every
    lowering mode, so if s1 x and s2 x lie in it, so do s1 s2 x, s2 s1 x and
    [s1, s2] x; hence every lowering mode g(m) sends x into Rad, and
    W = W' g(m) leaves Wx = W'(g(m)x) no vacuum component.  The argument
    takes the bracket of two lowering modes to act as the table says, which
    holds because the table satisfies the Jacobi identity (_check_jacobi).
    Each Rad_u below the top is kept as _kernel returns it, with rows R_f
    of lead L at pivot f and zero at the other pivots.  For a spanning word
    b, the image y = s b becomes L y - sum_f y[f] R_f (_cross_reduce), an
    int row when y is, and its entry at each non-pivot column gives one
    linear condition; scaling every image by the same L does not change
    the kernel.  Where Rad_(u-d) is empty every column is a condition, and
    each image is written straight into the condition rows.

    The generators are imposed one at a time, in _lowering_generators
    order, each one's condition rows fed into one running echelon of the
    weight (_echelon continues it).  A word j whose pivot row is {j: lead}
    alone has coefficient 0 in every vector of the kernel so far, so g(m)
    is not applied to it: its column would add a multiple of that pivot
    row to each condition, which leaves the row space, hence the reduced
    echelon and the kernel, as they are.  The weight stops once every
    column is a pivot.  Before any word is listed, graded_dims predicts the
    words of the largest slice (the top one, past weight 0), and more than
    _RADICAL_WORD_BOUND of them raise ResourceLimit.
    """
    _require_positive_weights(pres, "the radical slice")
    predicted = max(graded_dims(pres, w_max), default=0)
    if predicted > _RADICAL_WORD_BOUND:
        raise ResourceLimit(
            f"the radical up to weight {w_max} would list {predicted} spanning words"
            f" at one weight, past the bound of {_RADICAL_WORD_BOUND}",
            bound=_RADICAL_WORD_BOUND,
            predicted=predicted,
        )
    imposed = _lowering_generators(pres, w_max)
    columns: List[Dict[Word, int]] = []  # per weight: word -> column
    rads: List[Tuple[int, Dict[int, Dict[int, int]]]] = []  # per weight: (L, rows)
    for u in range(w_max + 1):
        basis = spanning_basis(pres, u)
        pivots = {} if u else {0: {0: 1}}  # Rad_0 = 0
        for g, d in imposed:
            if d > u or len(pivots) == len(basis):
                break
            cols, (scale, rad) = columns[u - d], rads[u - d]
            m = pres.wt(g) + d - 1
            conditions = {c: {} for c in range(len(cols)) if c not in rad}
            for j, b in enumerate(basis):
                pivot = pivots.get(j)
                if pivot is not None and len(pivot) == 1:
                    continue
                image = pres.prepend_mode(g, m, b)
                if rad:
                    image = _cross_reduce({cols[w]: c for w, c in image.items()}, rad, scale)
                    for c, v in image.items():
                        conditions[c][j] = v
                else:
                    for w, v in image.items():
                        conditions[cols[w]][j] = v
            _echelon(conditions.values(), len(basis), pivots)
        scale, kernel = _kernel((), len(basis), pivots)
        if u < w_max:
            columns.append({b: j for j, b in enumerate(basis)})
            rads.append((scale, kernel))
        yield u, basis, scale, kernel


def _build_slice(pres: Presentation, u: int, basis: List[Word], scale: int, kernel):
    """The RadicalSlice of one weight that _radical_kernels yields, with one
    VAElement per kernel vector."""
    elements = [
        VAElement(pres, {basis[j]: _exact(Fraction(v, scale)) for j, v in vec.items()})
        for vec in kernel.values()
    ]
    return RadicalSlice(u, basis, elements)


def radical_slices(pres: Presentation, w_max: int) -> List[RadicalSlice]:
    """Radical of the vacuum module at every weight 0..w_max: the states x
    with Wx = 0 for every product W of lowering modes g(m), m >= wt(g), that
    lowers x to weight 0 (where only the vacuum lives).  _radical_kernels
    computes it."""
    return [_build_slice(pres, *k) for k in _radical_kernels(pres, w_max)]


def radical_slice(pres: Presentation, weight: int) -> RadicalSlice:
    """The weight-`weight` slice of radical_slices (empty below weight 0).
    The lower weights are computed, but only this slice's elements are
    built."""
    top = None
    for top in _radical_kernels(pres, weight):
        pass
    return _build_slice(pres, *top) if top else RadicalSlice(weight, [], [])


# ---------------------------------------------------------------------------
# Vacuum correlation functions
# ---------------------------------------------------------------------------

def _mono_series_support(mono, radius: int) -> Dict[Tuple[int, ...], int]:
    """Every nonzero coefficient of prod z_i^(e_i) in the expansion of a
    basis monomial on the region |z_r| > ... > |z_1|, where (z_m - z_i)^k
    expands as sum_s C(k, s) (-1)^s z_i^s z_m^(k-s), whose exponents all lie
    in [-radius, radius], keyed by exponent tuple.

    Walks the owners from the top variable down and enumerates each
    expansion order s: the exponent of z_m is its own power (l for z_m^l,
    k - s for (z_m - z_i)^k) plus the orders s that higher owners sent down
    to it.  Basis monomials have k < 0, so C(k, s) never vanishes.
    """
    out: Dict[Tuple[int, ...], int] = {}
    _mono_walk(mono, radius, [0] * len(mono), [0] * len(mono), out, len(mono), 1)
    return out


def _mono_walk(mono, radius, exps, inflow, out, m, coeff):
    """_mono_series_support's walk from variable m down: exps holds the
    exponents chosen above m, inflow the orders sent down so far."""
    if m == 0:
        out[tuple(exps)] = coeff
        return
    fac = mono[m - 1]
    if fac[0] == "p":
        exps[m - 1] = fac[1] + inflow[m - 1]
        if exps[m - 1] <= radius:
            _mono_walk(mono, radius, exps, inflow, out, m - 1, coeff)
        return
    i, k = fac[1], fac[2]
    top = k + inflow[m - 1]  # exponent of z_m at s = 0
    s_max = top + radius
    target = mono[i - 1]
    if target[0] == "p":
        s_max = min(s_max, radius - target[1] - inflow[i - 1])
    for s in range(max(0, top - radius), s_max + 1):
        exps[m - 1] = top - s
        inflow[i - 1] += s
        _mono_walk(mono, radius, exps, inflow, out, m - 1,
                   coeff * gbinom(k, s) * (-1) ** (s % 2))
        inflow[i - 1] -= s


def _vacuum_series_support(
    pres: Presentation, gidx: Sequence[int], radius: int, total: int
) -> Dict[Tuple[int, ...], int | Fraction]:
    """Every nonzero vacuum coefficient of g_r(-e_r-1) ... g_1(-e_1-1) 1 on
    the window (every exponent in [-radius, radius], summing to total),
    keyed by exponent tuple, where g_i = gidx[i-1]: the coefficient of
    prod z_i^(e_i) in the vacuum matrix series of the insertions.

    When the sign-symmetry selection rule (Presentation._parity_forbids)
    fires, every coefficient is 0 and the result is {} with no walk, for
    every table, Jacobi or not (the argument is in its docstring).
    Otherwise the walk runs over the window's prefixes depth first, each
    exponent within the range the remaining ones can still reach, with the
    last exponent fixed by the total.  The state after the first k
    insertions is straightened once for every tuple that shares those k
    exponents, and a prefix whose state is empty is dropped with its whole
    subtree: every tuple under it has the value 0.  The last insertion
    contributes only its vacuum coefficient.
    """
    if pres._parity_forbids(gidx):
        return {}
    out: Dict[Tuple[int, ...], int | Fraction] = {}
    _series_walk(pres, gidx, radius, [], out, 0, {VACUUM_WORD: 1}, total)
    return out


def _series_walk(pres, gidx, radius, acc, out, i, state, left):
    """_vacuum_series_support's walk from insertion i on: acc holds the
    exponents of the insertions before i, state their straightened word
    and left the exponent total still to place."""
    r = len(gidx)
    if i == r - 1:
        if -radius <= left <= radius:
            g, n = gidx[i], -left - 1
            value = 0
            for word, c in state.items():
                v = pres._prepend(g, n, word).get(VACUUM_WORD)
                if v:
                    value += c * v
            if value:
                out[tuple(acc) + (left,)] = value
        return
    g = gidx[i]
    reach = radius * (r - 1 - i)
    for e in range(max(-radius, left - reach), min(radius, left + reach) + 1):
        nxt = pres._act(g, -e - 1, state)
        if nxt:
            acc.append(e)
            _series_walk(pres, gidx, radius, acc, out, i + 1, nxt, left - e)
            acc.pop()


def _insertions(pres: Presentation, gen_names: Sequence[str], pole_bound: int):
    """Generator indices and weights of 1 to 4 insertions, under a pole
    bound >= 0."""
    if not 1 <= len(gen_names) <= 4:
        raise BadPartition("between 1 and 4 insertions supported")
    gidx = [pres.gen_index(name) for name in gen_names]
    if pole_bound < 0:
        raise SchemaError("pole budget must be >= 0")
    return gidx, tuple(pres.wt(g) for g in gidx)


def _certify(
    pres: Presentation,
    gen_names: Sequence[str],
    gidx: Sequence[int],
    sorts: Tuple[int, ...],
    result: LocalFn,
    pole_bound: int,
    radius: int,
) -> LocalFn:
    """Return result once it is certified as the vacuum correlator of the
    insertions; both correlator routes end here.

    Three checks, in order:
    * every monomial lies in the ansatz space: basis monomials of the total
      weight with pole total at most the pole bound;
    * the expansion (_mono_series_support) equals the vacuum series
      (_vacuum_series_support) on the window of radius radius + 2.  Both
      sides are sparse sums with no zero values.  Every key of the
      expansion lies in the window, because each exponent is within
      radius + 2 and every monomial has the total weight, so equal sums
      agree at every tuple of the window.  Where the selection rule makes
      the series {}, the check still runs and requires an expansion with
      no nonzero value on the window;
    * result passes in_connective.

    A failed check is a NoLocalMatch carrying the window radius (radius + 2
    for a series mismatch, radius otherwise), the number of basis monomials
    within the pole bound and, for a series mismatch, the first mismatching
    tuple in lexicographic order.
    """
    r = len(gidx)
    g_total = sum(sorts)

    def failure(message, radius, exponents=None):
        candidates = len(MonomialBasis(r, g_total, pole_bound))
        return NoLocalMatch(message, radius=radius, candidates=candidates, exponents=exponents)

    if any(mono_grading(m) != g_total or mono_pole_total(m) > pole_bound for m in result.terms):
        raise failure(
            f"series of {list(gen_names)} has no local match within pole bound {pole_bound}",
            radius,
        )
    expansion: Dict[Tuple[int, ...], int | Fraction] = {}
    for m, c in result.terms.items():
        add_into(expansion, _mono_series_support(m, radius + 2), c)
    series = _vacuum_series_support(pres, gidx, radius + 2, -g_total)
    if expansion != series:
        e = min(k for k in expansion.keys() | series.keys() if expansion.get(k) != series.get(k))
        raise failure(f"verification window mismatch at exponents {e}", radius + 2, e)
    if not in_connective(result, 0, SortSignature(0, sorts)):
        raise failure(
            f"local match of {list(gen_names)} is outside the connectivity-0 piece", radius
        )
    return result


def npoint_vacuum(pres: Presentation, gen_names: Sequence[str], pole_bound: int) -> LocalFn:
    """The local function whose expansion on |z_r| > ... > |z_1| matches the
    vacuum matrix series of the given generator insertions.

    An ansatz over every basis monomial within the pole bound is solved
    against exactly computed series coefficients on the window of radius
    R0 = pole_bound + |total weight| + 1, widened by 2 up to three times
    while the solve is underdetermined, and the solution is certified by
    _certify at the final radius.  The candidates are not filtered one by
    one, because the connective piece is not spanned by its monomials: the
    canonical form of c/((z1-z2)(z1-z3)(z2-z3))^2 passes in_connective
    although two of its four monomials fail.  NoLocalMatch reports an
    inconsistent or underdetermined ansatz, or a failed certificate, with
    _certify's payload.

    The linear system has one sparse row per tuple where the series
    (_vacuum_series_support) or some candidate's expansion
    (_mono_series_support) is nonzero: its entries are the candidates'
    coefficients there and its right-hand side the series value.  Any other
    tuple of the window would only add an all-zero row.  The kernel of the
    augmented rows decides the solve: the right-hand side column is a pivot
    when the system is inconsistent, and when it is the only free column,
    its kernel vector v with scale L gives the solution -v_j / L.
    """
    gidx, sorts = _insertions(pres, gen_names, pole_bound)
    r = len(gidx)
    g_total = sum(sorts)
    candidates = basis_monomials(r, g_total, pole_bound)
    rhs = len(candidates)
    start = pole_bound + abs(g_total) + 1
    for radius in range(start, start + 7, 2):
        row_of = {
            e: {rhs: v}
            for e, v in _vacuum_series_support(pres, gidx, radius, -g_total).items()
        }
        for j, m in enumerate(candidates):
            for e, c in _mono_series_support(m, radius).items():
                row_of.setdefault(e, {})[j] = c
        scale, kernel = _kernel(row_of.values(), rhs + 1)
        if rhs not in kernel:
            raise NoLocalMatch(
                f"series of {list(gen_names)} has no local match within pole bound {pole_bound}",
                radius=radius,
                candidates=rhs,
            )
        if len(kernel) == 1:
            result = LocalFn(r, {candidates[j]: _exact(Fraction(-v, scale))
                                 for j, v in kernel[rhs].items() if j != rhs})
            return _certify(pres, gen_names, gidx, sorts, result, pole_bound, radius)
    raise NoLocalMatch(
        "ansatz underdetermined; increase the pole bound window",
        radius=radius,
        candidates=rhs,
    )


# ---------------------------------------------------------------------------
# Vacuum correlation functions by the genus-zero Ward recursion
# ---------------------------------------------------------------------------

def _ward_kernel(r: int, i: int, p: int, mode: int, m: int) -> LocalFn:
    """C(mode, m) (z_i - z_p)^(mode - m) for 0-based points p < i and
    mode < 0: the residue at x = z_i of (x - z_p)^mode (x - z_i)^(-m-1)."""
    mono = tuple(("d", p + 1, mode - m) if v == i else ("p", 0) for v in range(r))
    return LocalFn(r, {mono: gbinom(mode, m)})


def ward_correlator(pres: Presentation, gen_names: Sequence[str]) -> LocalFn:
    """The vacuum correlator of the given generator insertions as a local
    function, by the genus-zero Ward recursion (Zhu 1996, J. AMS 9).

    A state puts a normal word v_i at each point z_i.  At the first point p
    whose word is a(-k-1)w, the residue theorem applied to the Borcherds
    identity gives

        <... Y(a(-k-1)w, z_p) ...> = -sum_{i != p} sum_{m >= 0} C(-k-1, m)
            (z_i - z_p)^(-k-1-m) <... Y(w, z_p) ... Y(a(m)v_i, z_i) ...>,

    with no residue at infinity because every generator has weight >= 1.
    Each step lowers the total weight by m + 1, and the state with the vacuum
    at every point is 1.  States are memoized on their tuple of words within
    one call (_ward_state).  Any number of insertions is accepted; the result
    is exact and canonical, and npoint_ward certifies it against the series.
    """
    _require_positive_weights(pres, "the Ward recursion")
    words = tuple(((pres.gen_index(name), -1),) for name in gen_names)
    return _ward_state(pres, len(words), words, {})


def _ward_state(pres: Presentation, r: int, words: Tuple[Word, ...], memo) -> LocalFn:
    """ward_correlator's correlator of the state `words`, memoized in memo.

    Every (point i, mode m) term of the recursion is minus the kernel
    _ward_kernel(r, i, p, mode, m) times the inner function, the sum of the
    lower states it reaches.  Each kernel monomial times each inner monomial
    is one GTerm, and all of the state's GTerms are canonicalized by one
    _reduce.
    """
    got = memo.get(words)
    if got is not None:
        return got
    p = next((i for i, v in enumerate(words) if v), None)
    if p is None:
        out = LocalFn.one(r)
    else:
        (a, mode), rest = words[p][0], words[p][1:]
        state = list(words)
        state[p] = rest
        gterms = []
        # the points before p hold the vacuum, and a(m)1 = 0 for m >= 0
        for i in range(p + 1, r):
            v = words[i]
            # a(m)v vanishes once m >= wt(a) + wt(v)
            for m in range(pres.wt(a) + pres.word_weight(v)):
                inner = {}
                for w2, c in pres._prepend(a, m, v).items():
                    state[i] = w2
                    add_into(inner, _ward_state(pres, r, tuple(state), memo).terms, c)
                state[i] = v
                if inner:
                    for km, kc in _ward_kernel(r, i, p, mode, m).terms.items():
                        kernel = _mono_to_gterm(km, -kc, r)
                        for mono, c in inner.items():
                            gterms.append(_gterm_mul(kernel, _mono_to_gterm(mono, c, r)))
        out = LocalFn(r, _reduce(gterms, r))
    memo[words] = out
    return out


def npoint_ward(pres: Presentation, gen_names: Sequence[str], pole_bound: int) -> LocalFn:
    """npoint_vacuum's local function computed by ward_correlator, with no
    solve: the result is certified by _certify at R0 = pole_bound +
    |total weight| + 1, the first radius of the ansatz, so a failure carries
    the same payload as npoint_vacuum's.
    """
    gidx, sorts = _insertions(pres, gen_names, pole_bound)
    radius = pole_bound + abs(sum(sorts)) + 1
    result = ward_correlator(pres, gen_names)
    return _certify(pres, gen_names, gidx, sorts, result, pole_bound, radius)


# ---------------------------------------------------------------------------
# Presets and documents
# ---------------------------------------------------------------------------

def preset_heisenberg(rank: int = 1, form=None) -> Presentation:
    """Abelian current algebra: rank generators of weight 1 with
    [a_i, a_j]_1 = <a_i, a_j> 1 and vanishing mode-0 bracket.  The form is
    symmetric, so the table is complete with a row for each orientation of
    every nonzero entry."""
    if rank < 1:
        raise SchemaError("rank must be >= 1")
    if form is None:
        table = {(i, i): {1: {VACUUM_WORD: 1}} for i in range(rank)}
    else:
        try:
            form = [[_rational(x, "a form entry") for x in row] for row in form]
        except TypeError as exc:
            raise SchemaError("form must be rank x rank") from exc
        if len(form) != rank or any(len(row) != rank for row in form):
            raise SchemaError("form must be rank x rank")
        if any(form[i][j] != form[j][i] for i in range(rank) for j in range(rank)):
            raise SchemaError("form must be symmetric")
        table = {
            (i, j): {1: {VACUUM_WORD: _exact(form[i][j])}}
            for i in range(rank) for j in range(rank) if form[i][j]
        }
    names = ["a"] if rank == 1 else [f"a{i+1}" for i in range(rank)]
    gens = [(name, 1) for name in names]
    return Presentation(gens, table, {}, label=f"heisenberg(rank={rank})")


def preset_virasoro(c) -> Presentation:
    """One generator of weight 2 with the stress-tensor singular products;
    at c = 0 the table has no [L, L]_3 row."""
    c = Fraction(c)
    row = {0: {((0, -2),): 1}, 1: {((0, -1),): 2}}
    if c:
        row[3] = {VACUUM_WORD: _exact(c / 2)}
    return Presentation([("L", 2)], {(0, 0): row}, {"c": c}, label=f"virasoro(c={c})")


def _rational(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {value!r} for {what}") from exc


def _integer(value, what: str) -> int:
    """An int, or a string spelling one; anything else (bools, floats,
    other strings) is a SchemaError rather than a silent truncation."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise SchemaError(f"bad integer {value!r} for {what}")


def _json_typed(value, kind: type, what: str):
    """value itself if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        json_name = "object" if kind is dict else "array"
        raise SchemaError(f"{what} must be a JSON {json_name}, not {type(value).__name__}")
    return value


def _preset_keys(doc: dict, name: str, keys: Tuple[str, ...]):
    """Raise SchemaError at the first key of a preset document that is
    neither "preset" nor one of the preset's own keys."""
    for key in doc:
        if key != "preset" and key not in keys:
            raise SchemaError(
                f"preset {name!r} takes no key {key!r} (its keys: {', '.join(keys)})"
            )


def _validate_table(gens: Sequence[Tuple[str, int]], table):
    """Raise at the first entry of a document's table that is not a
    combination of derivatives of generators and the vacuum of the
    product's weight, or that lies beyond _MAX_SINGULAR."""
    for (a, b), row in table.items():
        for n, entry in row.items():
            if n > _MAX_SINGULAR:
                raise UnboundedOPE(f"singular product at n={n} beyond bound {_MAX_SINGULAR}")
            want = gens[a][1] + gens[b][1] - n - 1
            for word in entry:
                if len(word) > 1:
                    raise SchemaError(
                        "table entries must be combinations of derivatives of "
                        "generators and the vacuum"
                    )
                if word and word[0][1] > -1:
                    raise SchemaError("table entry words must use negative modes")
                got = gens[word[0][0]][1] - word[0][1] - 1 if word else 0
                if got != want:
                    raise WeightMismatch(
                        f"[{gens[a][0]},{gens[b][0]}]_{n} has a word of "
                        f"weight {got}, expected {want}"
                    )


def _complete_by_skew(gens: Sequence[Tuple[str, int]], table):
    """Give every declared pair (a, b) of a document's table its reverse
    row by skew symmetry,

        [b, a]_m = (-1)^(m+1) sum_j ((-1)^j / j!) T^j [a, b]_(m+j),

    filling (b, a) when it was not declared and otherwise (a == b
    included) requiring the declared row to equal the computed one.
    The word g(-1-s)1 is (1/s!) T^s g, so (1/j!) T^j takes it to
    C(s + j, j) g(-1-s-j)1 and every factor but the table coefficient
    is an integer.
    """
    declared = dict(table)
    for (a, b), row in declared.items():
        top = max(row, default=-1)
        skew: Dict[int, Dict[Word, int | Fraction]] = {}
        for m in range(0, top + 1):
            entry: Dict[Word, int | Fraction] = {}
            for j in range(0, top - m + 1):
                src = row.get(m + j)
                if not src:
                    continue
                sign = -1 if (m + 1 + j) % 2 else 1
                for word, c in src.items():
                    if not word:
                        if j:
                            continue  # T kills the vacuum
                        w2 = VACUUM_WORD
                    else:
                        g, mode = word[0]
                        c = c * comb(-1 - mode + j, j)
                        w2 = ((g, mode - j),)
                    entry[w2] = entry.get(w2, 0) + sign * c
            entry = {w: _exact(c) for w, c in entry.items() if c}
            if entry:
                skew[m] = entry
        have = declared.get((b, a))
        if have is None:
            table[(b, a)] = skew
        elif have != skew:
            m = min(n for n in {*have, *skew} if have.get(n) != skew.get(n))
            raise SchemaError(
                f"declared [{gens[b][0]},{gens[a][0]}]_{m} conflicts with skew symmetry"
            )


def _check_jacobi(pres: Presentation):
    """Raise JacobiViolation unless the table satisfies

        a(m)(b(n)c) - b(n)(a(m)c) = [a(m), b(n)] c

    for all generators a, b, c, with c = c(-1)1, and modes m, n >= 0 with
    m + n <= wt a + wt b + wt c - 2 (beyond that the weight is negative).
    The table is linear, so this is its Jacobi identity (the lambda-bracket
    form; Kac, Vertex algebras for beginners, 2.7).  The right side reads
    the bracket through _mode_bracket, the left side straightens twice.
    """
    for a, b, c in product(range(len(pres.gens)), repeat=3):
        state = {((c, -1),): 1}
        top = pres.wt(a) + pres.wt(b) + pres.wt(c) - 2
        for m in range(top + 1):
            for n in range(top - m + 1):
                diff = pres._act(a, m, pres._act(b, n, state))
                add_into(diff, pres._act(b, n, pres._act(a, m, state)), -1)
                modes = pres._mode_bracket(a, m, b, n)
                for (g, k), coeff in modes.items():
                    add_into(diff, pres._act(g, k, state), -coeff)
                if diff:
                    names = [pres.gen_name(x) for x in (a, b, c)]
                    raise JacobiViolation(
                        f"the table fails the Jacobi identity for {', '.join(names)} "
                        f"at modes [{m}, {n}]",
                        generators=names,
                        modes=[m, n],
                    )


def load_presentation(doc) -> Presentation:
    """Build a presentation from a JSON document or preset description.

    Accepted shapes: {"preset": "virasoro", "c": "1/2"},
    {"preset": "heisenberg", "rank": 2, "form": [["1","0"],["0","1"]]},
    or the explicit form
    {"generators": [{"name", "weight"}], "central": {...},
     "relations": [{"a", "b", "n", "result": [{"coeff", "word", "tail"}]}]}.
    A preset document takes only its preset's keys (virasoro: preset, c;
    heisenberg: preset, rank, form); any other key is a SchemaError that
    names it.  All rationals are strings like "p/q".  An explicit document
    may state "connectivity" only as 0.  Its relations are checked and
    completed here into the table that Presentation stores: unique names,
    weights >= 0, _validate_table, _complete_by_skew, explicit zeros, and
    then _check_jacobi on the built presentation.  A preset is built
    complete by its constructor, which checks only its parameters.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"presentation document is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("presentation document must be a JSON object")
    if "preset" in doc:
        name = doc["preset"]
        if name == "virasoro":
            _preset_keys(doc, name, ("c",))
            return preset_virasoro(_rational(doc.get("c", 1), "c"))
        if name == "heisenberg":
            _preset_keys(doc, name, ("rank", "form"))
            rank = _integer(doc.get("rank", 1), "rank")
            return preset_heisenberg(rank, doc.get("form"))
        raise SchemaError(f"unknown preset {name!r}")
    try:
        gens = [
            (g["name"], _integer(g["weight"], "a generator weight"))
            for g in doc["generators"]
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad generators section: {exc}") from exc
    for name, _ in gens:
        if not isinstance(name, str):
            raise SchemaError(f"generator name {name!r} is not a string")
    name2idx = {name: i for i, (name, _) in enumerate(gens)}
    central = {
        k: _rational(v, k)
        for k, v in _json_typed(doc.get("central", {}), dict, "central").items()
    }
    relations: Dict[Tuple[int, int, int], Dict[Word, Fraction]] = {}
    for rel in _json_typed(doc.get("relations", []), list, "relations"):
        try:
            a, b = name2idx[rel["a"]], name2idx[rel["b"]]
            n = _integer(rel["n"], "a relation n")
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad relation header: {exc}") from exc
        if n < 0:
            raise SchemaError(
                "only singular products (n >= 0) can appear as relations"
            )
        entry: Dict[Word, Fraction] = {}
        for term in _json_typed(rel.get("result", []), list, "a relation result"):
            _json_typed(term, dict, "a relation result term")
            try:
                modes = [
                    (name2idx[g], _integer(m, "a word mode"))
                    for g, m in term.get("word", [])
                ]
                tail = term.get("tail", "vacuum")
                if tail != "vacuum":
                    modes.append((name2idx[tail], -1))
                coeff = _rational(term["coeff"], "a relation coefficient")
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"bad relation result: {exc}") from exc
            word = tuple(modes)
            entry[word] = entry.get(word, Fraction(0)) + coeff
        if (a, b, n) in relations:
            raise SchemaError(f"duplicate relation for ({rel['a']},{rel['b']},{n})")
        relations[(a, b, n)] = entry
    if _integer(doc.get("connectivity", 0), "connectivity") != 0:
        raise SchemaError("only connectivity 0 is supported")
    if len(name2idx) != len(gens):
        raise SchemaError("generator names must be unique")
    for name, w in gens:
        if w < 0:
            raise WeightMismatch(f"generator {name} has weight {w} below connectivity 0")
    table: Dict[Tuple[int, int], Dict[int, Dict[Word, int | Fraction]]] = {}
    zeros = []
    for (a, b, n), entry in sorted(relations.items()):
        entry = {w: _exact(c) for w, c in entry.items() if c != 0}
        if entry:
            table.setdefault((a, b), {})[n] = entry
        else:
            zeros.append((a, b, n))
    _validate_table(gens, table)
    _complete_by_skew(gens, table)
    # an explicit zero is checked at its own n only, so a redundant zero
    # beside a complete reverse row stays legal
    for a, b, n in zeros:
        if n in table.get((a, b), {}):
            raise SchemaError(
                f"declared [{gens[a][0]},{gens[b][0]}]_{n} = 0 conflicts with skew symmetry"
            )
    pres = Presentation(gens, table, central, label="document")
    _check_jacobi(pres)
    return pres


_WORD_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(\s*(-?\d+)\s*\)")


def parse_element(pres: Presentation, text: str) -> VAElement:
    """Parse a single mode word like "L(-3)L(-1)1" or a bare generator name."""
    text = text.strip()
    if text in pres.name2idx:
        return pres.gen_element(text)
    modes = []
    pos = 0
    while True:
        m = _WORD_TOKEN.match(text, pos)
        if not m:
            break
        modes.append((pres.gen_index(m.group(1)), int(m.group(2))))
        pos = m.end()
    rest = text[pos:].strip()
    if rest not in ("", "1"):
        raise SchemaError(f"cannot parse word {text!r} (stuck at {rest!r})")
    if not modes and rest != "1":
        raise SchemaError(f"cannot parse word {text!r}")
    return pres.word_element(modes)
