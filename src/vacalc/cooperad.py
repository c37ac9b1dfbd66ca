"""Co-operations on local functions: insertion, general co-composition,
expansion kernels, the cluster filtration, and axiom verification.

The basic co-operation splits a sorted subset S of the variables of a local
function off into a cluster around a fresh point t.  The outer variables
are those outside S, in order, with t at the slot of min S; the cluster
offsets are t_r = z_(S[r]) - t.  Every factor rewrites as

    z_v              ->  t + t_r                     (v = S[r])
    (z_v - z_i)^k    ->  ((t - z_i) + t_r)^k         (v = S[r], i outside S)
    (z_v - z_i)^k    ->  ((z_v - t) - t_r)^k         (i = S[r], v outside S)
    (z_v - z_i)^k    ->  (t_r - t_r')^k              (v = S[r], i = S[r'])

and the series are expanded in increasing powers of the cluster offsets.
For each outer grading p the coefficient is a finite sum of tensor products,
collected here in TensorElement values.  localfn's cluster expansion, the
one expansion engine, expands a single basis monomial in place for a whole
window of outer gradings in one enumeration, so every block and every
subset expands where it stands; _cluster_components turns its terms into
integer (outer monomial, inner monomial) coefficients.  One composition
step, _compose, sums those over the keys of an expanded sum {(m_0, ...,
m_k): coeff}, putting one factor's outer and inner monomial in its place;
the public insertions, the co-composition and both axiom grids are made
of it.  A TensorElement
holds that expanded sum {(outer monomial, inner monomial): coeff}, which
equality and hashing compare.  Only to print it (str and to_json) does it
regroup the sum into (outer, inner, coeff) triples, in one pass over the
monomials (_groups) that builds no LocalFn.  The JSON is written as text,
each distinct factor and monic inner function formatted once per output,
and so is the verify_axioms report (_report_json), each check adding only
its own fields to the text it shares with its neighbours; both equal
json.dumps with sorted keys, byte for byte.  The cluster filtration reads
the same engine: the level of S is the top inner grading of the insertion
that splits S off.  The general many-block co-composition is iterated
composition, last block first; it is well defined because insertions into
disjoint blocks commute.

Gradings follow localfn: the grading of an outer/inner factor is minus its
scaling degree, and outer + inner grading equals the input grading in every
produced term.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .errors import BadPartition, BadSplit, BadSubset, SchemaError
from .localfn import (
    LocalFn,
    Monomial,
    MonomialBasis,
    basis_monomials,
    mono_grading,
    mono_level_in_subset,
    mono_pole_total,
    mono_sort_key,
    _cluster_gterms,
    _cluster_layout,
    _cluster_setup,
    _cluster_terms,
    _collision_level,
    _divided,
    _fn_json,
    _permute_gterm,
    _reduce,
    _terms_text,
)
from .numutil import SparseSum, _exact, _kernel, gbinom


# ---------------------------------------------------------------------------
# Tensor containers
# ---------------------------------------------------------------------------

def _groups(expanded) -> list:
    """The canonical grouping of the expanded sum {(m_0, ..., m_r): coeff}:
    (prefix, lead, items) triples in the order of their prefixes (m_0, ...,
    m_(r-1)), one per prefix, whose monomials become monic factors.  items
    lists the last factor's (monomial, coeff) pairs in print order, divided
    by the leading coefficient lead as LocalFn.primitive divides.  Zero
    coefficients are skipped.  The distinct last monomials are ranked once
    per call, and every group sorts by that rank."""
    groups: Dict[tuple, Dict[Monomial, int | Fraction]] = {}
    for key, v in expanded.items():
        if v:
            groups.setdefault(key[:-1], {})[key[-1]] = v
    lasts = sorted({m for terms in groups.values() for m in terms}, key=mono_sort_key)
    rank = {m: i for i, m in enumerate(lasts)}
    out = []
    for prefix in sorted(groups, key=lambda p: tuple(mono_sort_key(m) for m in p)):
        terms = groups[prefix]
        items = [(m, terms[m]) for m in sorted(terms, key=rank.__getitem__)]
        lead = items[0][1]
        out.append((prefix, lead, _divided(items, lead)))
    return out


def _regroup(expanded, arities):
    """Canonical tuple of the expanded sum {(m_0, ..., m_r): coeff}, with
    factor arities given by arities: _groups as (monic LocalFn per prefix
    monomial, ..., LocalFn of the last factor, lead) tuples."""
    return tuple(
        (*(LocalFn(a, {m: 1}) for a, m in zip(arities, prefix)),
         LocalFn(arities[-1], dict(items)), lead)
        for prefix, lead, items in _groups(expanded)
    )


class TensorElement(SparseSum):
    """One bidegree component of a co-composition: sum of outer (x) inner,
    held as the expanded sum {(outer monomial, inner monomial): coeff}.
    Bilinearity makes groupings like A (x) B + A (x) C versus A (x) (B + C)
    the same element, and the expanded sum is the same for all of them.
    str and to_json print its canonical grouping, one entry per outer
    monomial with a monic inner factor, straight from the monomials of
    _groups; to_obj reads the JSON text back, and grouped() gives the
    same grouping as LocalFn tuples."""

    __slots__ = ("outer_arity", "inner_arity")
    _space_name = "arities"
    _sort_key = staticmethod(lambda pair: (mono_sort_key(pair[0]), mono_sort_key(pair[1])))

    def __init__(self, outer_arity: int, inner_arity: int, terms: Dict[tuple, int | Fraction]):
        self.outer_arity = outer_arity
        self.inner_arity = inner_arity
        self.terms = {pair: c for pair, c in terms.items() if c}

    @property
    def _space(self):
        return (self.outer_arity, self.inner_arity)

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement(self.outer_arity, self.inner_arity, terms)

    def grouped(self) -> tuple:
        """The canonical tuple of (outer LocalFn, inner LocalFn, coeff): one
        entry per outer monomial, in monomial order, with a monic inner
        factor."""
        return _regroup(self.terms, (self.outer_arity, self.inner_arity))

    def __str__(self):
        bits = []
        for (mo,), c, inner in _groups(self.terms):
            prefix = "" if c == 1 else f"{c} * "
            bits.append(f"{prefix}[{_terms_text([(mo, 1)], 'z')}] (x) [{_terms_text(inner, 't')}]")
        return " + ".join(bits) or "0"

    def to_json(self) -> str:
        """The JSON text of to_obj(), with sorted keys.  Each distinct
        factor and each distinct monic inner function is written once."""
        oa, ia = self.outer_arity, self.inner_arity
        factors: dict = {}
        inners: dict = {}
        terms = []
        for (mo,), c, items in _groups(self.terms):
            key = tuple(items)
            inner = inners.get(key)
            if inner is None:
                inner = inners[key] = _fn_json(ia, items, factors)
            outer = _fn_json(oa, ((mo, 1),), factors)
            terms.append(f'{{"coeff": "{c}", "inner": {inner}, "outer": {outer}}}')
        return f'{{"inner_arity": {ia}, "outer_arity": {oa}, "terms": [{", ".join(terms)}]}}'

    def to_obj(self):
        return json.loads(self.to_json())


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------

def _cluster_components(mono: Monomial, layout, p_lo: int, p_hi: int, reduced):
    """Outer gradings p_lo..p_hi of the insertion clustering a subset of the
    variables of one basis monomial with coefficient 1, from one enumeration
    of localfn's cluster expansion on the subset's layout: {p: {(outer
    monomial, inner monomial): int}}, with only the p of the window that
    some expansion term reaches.  reduced maps each outer and each inner
    leaf to its canonical form; the caller decides how long it lives."""
    expansion, term, inner = _cluster_setup(mono, layout)
    oa = layout[1]
    size = len(mono) + 1 - oa
    inner = {(hi - oa, lo - oa): k for (hi, lo), k in inner.items()}
    inner_key = tuple(sorted(inner.items()))
    leaves = [[] for _ in range(p_lo, p_hi + 1)]
    _cluster_terms(expansion, term, p_lo, p_hi, gbinom, leaves)
    out: Dict[int, Dict[tuple, int]] = {}
    for p, terms in zip(range(p_lo, p_hi + 1), leaves):
        if not terms:
            continue
        acc = out[p] = {}
        for c, zp, dp in terms:
            key = (tuple(zp[:oa]), tuple(sorted(dp.items())))
            red_out = reduced.get(key)
            if red_out is None:
                red_out = reduced[key] = _reduce([(1, zp[:oa], dp)], oa)
            key = (tuple(zp[oa:]), inner_key)
            red_in = reduced.get(key)
            if red_in is None:
                red_in = reduced[key] = _reduce([(1, zp[oa:], inner)], size)
            for mi, ci in red_in.items():
                for mo, co in red_out.items():
                    pair = (mo, mi)
                    acc[pair] = acc.get(pair, 0) + c * co * ci
    return out


def _compose(sums, factor: int, pos: int, size: int, p_lo: int, p_hi: int, memo, reduced):
    """Insert into factor `factor` of every key of the expanded sum sums =
    {(m_0, ..., m_k): coeff}: {p: expanded sum} for the p in p_lo..p_hi
    that some term reaches, the only ones _cluster_components returns
    (most grid cells are empty), in which m_factor gives way to the outer
    then the inner monomial of the insertion clustering its block
    [pos, pos+size), each coefficient times the key's.
    memo holds _cluster_components per (monomial, pos, size, p_lo, p_hi),
    so each is expanded once, and reduced the leaf reductions; the caller
    decides how long both live.  Every monomial of one factor has the same
    arity, so the layout is built at most once per call."""
    out: Dict[int, Dict[tuple, int | Fraction]] = {}
    layout = None
    for key, c1 in sums.items():
        mono = key[factor]
        mkey = (mono, pos, size, p_lo, p_hi)
        comps = memo.get(mkey)
        if comps is None:
            if layout is None:
                layout = _cluster_layout(len(mono), list(range(pos, pos + size)))
            comps = memo[mkey] = _cluster_components(mono, layout, p_lo, p_hi, reduced)
        head, tail = key[:factor], key[factor + 1:]
        for p, comp in comps.items():
            acc = out.setdefault(p, {})
            for pair, c2 in comp.items():
                k = head + pair + tail
                acc[k] = acc.get(k, 0) + c1 * c2
    return out


def _insert(f: LocalFn, pos: int, size: int, p_lo: int, p_hi: int) -> Dict[int, TensorElement]:
    """{p: TensorElement} for p_lo..p_hi of the insertion clustering the block
    [pos, pos+size) of f: one _compose on f's terms as one-factor keys, with
    expansions and reductions shared within this call only."""
    f.grading()  # raises NotHomogeneous when mixed
    sums = _compose({(mono,): c for mono, c in f.terms.items()}, 0, pos, size, p_lo, p_hi, {}, {})
    oa = f.arity - size + 1
    return {p: TensorElement(oa, size, sums.get(p, {})) for p in range(p_lo, p_hi + 1)}


def insert_component(f: LocalFn, m: int, p: int) -> TensorElement:
    """Outer-grading-p component of the co-operation splitting the last
    n-m variables of f off into a cluster at the new slot m+1."""
    return insert_components(f, m, p, p)[p]


def insert_components(f: LocalFn, m: int, p_lo: int, p_hi: int) -> Dict[int, TensorElement]:
    """{p: insert_component(f, m, p)} for p_lo <= p <= p_hi, from one
    enumeration of each term of f."""
    n = f.arity
    if n == 0:
        raise BadSplit("a function of no variables has no variable to split")
    if not 0 <= m < n:
        raise BadSplit(f"split position {m} outside 0..{n - 1}")
    return _insert(f, m + 1, n - m, p_lo, p_hi)


def insert_block(f: LocalFn, pos: int, size: int, p: int) -> TensorElement:
    """Insertion clustering the contiguous block [pos, pos+size) of f's
    variables, with the new outer variable placed back at position pos."""
    n = f.arity
    if size < 1 or pos < 1 or pos + size - 1 > n:
        raise BadSplit(f"block [{pos}, {pos + size}) outside 1..{n}")
    return _insert(f, pos, size, p, p)[p]


# ---------------------------------------------------------------------------
# General co-composition
# ---------------------------------------------------------------------------

def cocompose_general(
    f: LocalFn, blocks: Sequence[int], multidegree: Sequence[int]
) -> List[tuple]:
    """Multidegree component of the co-operation with the given block sizes.

    Variables are grouped left to right into blocks of the given sizes; block
    b collapses to the outer variable z_b, with offsets t_{b,s}.  Returns a
    merged list of (outer LocalFn of arity k, inner LocalFns of arities
    blocks[b], coeff) whose gradings are exactly the requested multidegree
    (ell_0 for the outer factor, ell_b for block b).

    This is iterated insertion on expanded sums, last block first: block b
    (counted from 1) goes into the outer factor at position 1 + (sizes of
    blocks 1..b-1) with outer grading g - ell_b - ... - ell_k, where g is
    the grading of f, so the blocks still to be inserted never shift.  Each
    step is one _compose, whose memo expands each distinct outer monomial
    once, and the sum is regrouped once at the end.
    """
    n = f.arity
    k = len(blocks)
    if k == 0 or any(b <= 0 for b in blocks) or sum(blocks) != n:
        raise BadPartition(f"block sizes {blocks} do not partition {n} variables")
    g = f.grading()
    if len(multidegree) != k + 1:
        raise BadPartition("need one outer degree plus one degree per block")
    if sum(multidegree) != g:
        raise BadPartition(f"multidegree sums to {sum(multidegree)}, grading is {g}")
    memo, reduced = {}, {}
    expanded = {(mono,): c for mono, c in f.terms.items()}
    pos, p = n + 1, g
    for size, ell in zip(reversed(blocks), reversed(multidegree[1:])):
        pos -= size
        p -= ell
        expanded = _compose(expanded, 0, pos, size, p, p, memo, reduced).get(p, {})
    return list(_regroup(expanded, (k, *blocks)))


# ---------------------------------------------------------------------------
# Expansion kernels
# ---------------------------------------------------------------------------
# Commuting two insertions boils down to expanding (w + u - v)^-1 in the two
# cluster offsets u, v in either order; iterating an insertion boils down to
# the two routes through (-u + w)^-1 after recentering w.  Both computations
# are done mechanically below (only the generalized binomial rule is used),
# and the closed forms are what kernel_table returns.

def _geo_expand(c_a: int, c_x: int, exponent: int, orders: int):
    """Coefficients of (c_a*A + c_x*x)^exponent as a series in x.

    Returns {j: coeff of x^j * A^(exponent - j)} for j < orders, each an
    int where it is integral.
    """
    out = {}
    for j in range(orders):
        out[j] = _exact(
            gbinom(exponent, j) * Fraction(c_x) ** j * Fraction(c_a) ** (exponent - j)
        )
    return out


def symmetric_expansion(order_first: str, m_max: int, n_max: int):
    """Double expansion of (w + u - v)^-1, u or v first.

    Returns {(m, n): coeff of u^n v^m w^(-1-m-n)}.
    """
    size = max(m_max, n_max) + 1
    table = {}
    if order_first == "u":
        outer = _geo_expand(1, 1, -1, size)  # ((w - v) + u)^-1 in u
        for a, ca in outer.items():
            inner = _geo_expand(1, -1, -1 - a, size)  # (w - v)^(-1-a) in v
            for b, cb in inner.items():
                table[(b, a)] = ca * cb
    elif order_first == "v":
        outer = _geo_expand(1, -1, -1, size)  # ((w + u) - v)^-1 in v
        for b, cb in outer.items():
            inner = _geo_expand(1, 1, -1 - b, size)  # (w + u)^(-1-b) in u
            for a, ca in inner.items():
                table[(b, a)] = ca * cb
    else:
        raise SchemaError("order_first must be 'u' or 'v'")
    return {
        (m, n): c for (m, n), c in table.items() if m <= m_max and n <= n_max
    }


def associative_expansion(route: int, m_max: int, n_max: int):
    """The two iterated-insertion routes through (-u + w)^-1.

    With v = z_j - t and q = t - s, returns {(m, n): coeff of
    v^n q^m u^(-1-m-n)}.  Route 1 expands in w = q + v first; route 2
    expands (-(u - q) + v)^-1 in v first and recenters afterwards.
    """
    size = m_max + n_max + 1
    table = {}
    if route == 1:
        outer = _geo_expand(-1, 1, -1, size)  # (-u + w)^-1 in w
        for j, cj in outer.items():
            for r in range(0, j + 1):  # w^j = (q + v)^j
                n, m = r, j - r
                if n <= n_max and m <= m_max:
                    table[(m, n)] = table.get((m, n), 0) + cj * gbinom(j, r)
    elif route == 2:
        outer = _geo_expand(1, 1, -1, size)  # (-(z_i - t) + v)^-1 in v, A = -(z_i - t)
        for n, cn in outer.items():
            if n > n_max:
                continue
            inner = _geo_expand(-1, 1, -1 - n, size)  # (-u + q)^(-1-n) in q
            for m, cm in inner.items():
                if m <= m_max:
                    table[(m, n)] = cn * cm
    else:
        raise SchemaError("route must be 1 or 2")
    return table


def kernel_table(kind: str, m_max: int, n_max: int) -> Dict[Tuple[int, int], int]:
    """Closed-form {(m, n): coeff} table of the symmetric or associative kernel."""
    if kind == "symmetric":
        coeffs = {
            (m, n): (-1) ** n * gbinom(m + n, n)
            for m in range(m_max + 1)
            for n in range(n_max + 1)
        }
    elif kind == "associative":
        coeffs = {
            (m, n): -gbinom(m + n, m)
            for m in range(m_max + 1)
            for n in range(n_max + 1)
        }
    else:
        raise SchemaError(f"unknown kernel kind {kind!r}")
    return coeffs


# ---------------------------------------------------------------------------
# Cluster filtration and connectivity
# ---------------------------------------------------------------------------

def filtration_basis(n, subset, N, grading, pole_budget) -> List[LocalFn]:
    """Reduced-echelon basis, in order of pivot column, of the level-<=N piece
    on the subset spanned by basis_monomials(n, grading, pole_budget): the
    kernel of the parts of inner grading j > N of the insertion clustering
    the subset, each read off localfn's cluster expansion of every
    candidate.  Its elements may be sums of monomials whose deeper poles
    cancel."""
    s = sorted(set(subset))
    if not s or s[0] < 1 or s[-1] > n:
        raise BadSubset(f"subset must be nonempty within 1..{n}: {subset}")
    if N < 0:
        return []
    cands = basis_monomials(n, grading, pole_budget)
    # columns are numbered from the last candidate, so each kernel vector
    # leads, in candidate order, at its free column: the kernel is the
    # reduced echelon form, by decreasing free column
    last = len(cands) - 1
    rows: Dict[tuple, Dict[int, Fraction]] = {}
    layout = _cluster_layout(n, s)
    for col, mono in enumerate(cands):
        expansion, term = _cluster_gterms(mono, layout)
        for j in range(N + 1, mono_level_in_subset(mono, s) + 1):
            gterms: List[tuple] = []
            _cluster_terms(expansion, term, grading - j, grading - j, gbinom, [gterms])
            for m, v in _reduce(gterms, n + 1).items():
                rows.setdefault((j, m), {})[last - col] = v
    scale, kernel = _kernel(rows.values(), len(cands))
    return [
        LocalFn(n, {cands[last - c]: _exact(Fraction(v, scale)) for c, v in vec.items()})
        for vec in reversed(kernel.values())
    ]


class SortSignature:
    """Output sort plus one sort per variable of an m-variable function."""

    __slots__ = ("out_sort", "sorts")

    def __init__(self, out_sort: int, sorts):
        self.out_sort = out_sort
        self.sorts = tuple(sorts)


def in_connective(f: LocalFn, k: int, sig: SortSignature) -> bool:
    """Membership test for the connectivity-k piece: the collision level of
    every nonempty variable subset is bounded by -k + (sum of its sorts)."""
    if f.is_zero():
        return True
    gradings = {mono_grading(mono) for mono in f.terms}
    if len(gradings) > 1:
        return False
    m = f.arity
    if len(sig.sorts) != m:
        raise BadSubset("need one sort per variable")
    if gradings != {sum(sig.sorts) - sig.out_sort}:
        return False
    # a single variable has level 0, and no level exceeds the deepest
    # monomial's total pole depth
    deepest = max(mono_pole_total(mono) for mono in f.terms)
    for size in range(1, m + 1):
        for subset in combinations(range(1, m + 1), size):
            bound = -k + sum(sig.sorts[i - 1] for i in subset)
            if bound < 0:
                return False
            if size > 1 and bound < deepest and _collision_level(f, list(subset), bound) > bound:
                return False
    return True


def induced_signatures(sig: SortSignature, m: int, p: int):
    """Sorts of the two factors of an outer-grading-p insertion component.

    The cluster gets the intermediate sort j = p + out_sort - (sum of the
    kept sorts); components with j < k vanish for members of the
    connectivity-k piece.
    """
    kept = sig.sorts[:m]
    moved = sig.sorts[m:]
    j = p + sig.out_sort - sum(kept)
    outer_sig = SortSignature(sig.out_sort, kept + (j,))
    inner_sig = SortSignature(j, moved)
    return j, outer_sig, inner_sig


def insertion_closure_failures(f: LocalFn, k: int, sig: SortSignature, m: int, window: int):
    """Check that every insertion component within the grading window stays
    inside the connectivity-k piece with the induced sorts; returns a list
    of human-readable failure strings (empty when the closure holds).

    Membership of a tensor in W (x) W is tested by grouping along each
    side's monomial basis in turn: the coefficient functions against one
    side's basis monomials are canonical, and both groupings passing is
    equivalent to membership in the subspace tensor product.
    """
    fails = []
    for p, te in insert_components(f, m, -window, window).items():
        j, outer_sig, inner_sig = induced_signatures(sig, m, p)
        if j < k:
            if not te.is_zero():
                fails.append(f"p={p}: intermediate sort {j} < {k} but component nonzero")
            continue
        by_outer: Dict[Monomial, Dict[Monomial, int | Fraction]] = {}
        by_inner: Dict[Monomial, Dict[Monomial, int | Fraction]] = {}
        for (mo, mi), c in te.terms.items():
            by_outer.setdefault(mo, {})[mi] = c
            by_inner.setdefault(mi, {})[mo] = c
        for mo, inner_terms in by_outer.items():
            if not in_connective(LocalFn(te.inner_arity, inner_terms), k, inner_sig):
                fails.append(f"p={p}: inner coefficient fails with sorts {inner_sig.sorts}")
        for mi, outer_terms in by_inner.items():
            if not in_connective(LocalFn(te.outer_arity, outer_terms), k, outer_sig):
                fails.append(f"p={p}: outer coefficient fails with sorts {outer_sig.sorts}")
    return fails


# ---------------------------------------------------------------------------
# Axiom verification
# ---------------------------------------------------------------------------

def _commutativity_grid(mono, T, posA, a, posB, b, memo, reduced):
    """Insert disjoint blocks A then B and B then A into the basis monomial
    mono, for every inner grading pair (qA, qB) in -T..T at once: returns
    {(qA, qB): (one, two)}, the two expanded sums {(outer, innerA, innerB):
    int} (the check passes when they agree).  Each route is one _compose
    into mono, then one into the outer factor per first outer grading,
    asking for the outer gradings of inner grading -T..T; memo and reduced
    are _compose's, shared by the caller.  The A-first route yields keys
    (outer, innerB, innerA) and is reordered once per cell."""
    assert posA + a <= posB
    g = mono_grading(mono)
    grid = range(-T, T + 1)
    one, two = {}, {}
    # B first: positions unchanged for A
    first = _compose({(mono,): 1}, 0, posB, b, g - T, g + T, memo, reduced)
    for gB, sums in first.items():
        for p, cell in _compose(sums, 0, posA, a, gB - T, gB + T, memo, reduced).items():
            one[gB - p, g - gB] = cell
    # A first: B shifts left by a-1
    first = _compose({(mono,): 1}, 0, posA, a, g - T, g + T, memo, reduced)
    for gA, sums in first.items():
        for p, cell in _compose(sums, 0, posB - a + 1, b, gA - T, gA + T, memo, reduced).items():
            two[g - gA, gA - p] = {(o, iA, iB): c for (o, iB, iA), c in cell.items()}
    return {(qA, qB): (one.get((qA, qB), {}), two.get((qA, qB), {})) for qA in grid for qB in grid}


def _coassoc_grid(mono, T, b, b_sub, memo, reduced):
    """Split the last b variables, then the last b_sub of the cluster,
    against doing the two splits in the other order, for every grading pair
    (p_out, p_mid) in -T..T at once: returns {(p_out, p_mid): (one, two)},
    the two expanded sums {(outer, mid, inner): int}, built through
    _compose as _commutativity_grid builds its cells.  The b_sub-first split
    takes its outer grading total = p_out + p_mid from -2T..2T, and its
    second step asks only for the p_out the grid keeps, max(-T, total-T)..
    min(T, total+T)."""
    n = len(mono)
    grid = range(-T, T + 1)
    one, two = {}, {}
    first = _compose({(mono,): 1}, 0, n - b + 1, b, -T, T, memo, reduced)
    for p_out, sums in first.items():
        for p_mid, cell in _compose(sums, 1, b - b_sub + 1, b_sub, -T, T, memo, reduced).items():
            one[p_out, p_mid] = cell
    first = _compose({(mono,): 1}, 0, n - b_sub + 1, b_sub, -2 * T, 2 * T, memo, reduced)
    for total, sums in first.items():
        lo, hi = max(-T, total - T), min(T, total + T)
        second = _compose(sums, 0, n - b + 1, b - b_sub + 1, lo, hi, memo, reduced)
        for p_out, cell in second.items():
            two[p_out, total - p_out] = cell
    return {(p, q): (one.get((p, q), {}), two.get((p, q), {})) for p in grid for q in grid}


def _same_sum(one, two) -> bool:
    """Whether two expanded sums agree once their zero entries are dropped."""
    return one == two or {k: c for k, c in one.items() if c} == {k: c for k, c in two.items() if c}


def _show_expanded(arities):
    """Report text of an expanded sum with factors of the given arities: its
    canonical tuple, with each stored coefficient shown as a Fraction."""
    return lambda e: str(_regroup({k: Fraction(c) for k, c in e.items()}, arities))


def _permuted(te: TensorElement, side: int, perm) -> TensorElement:
    """te with perm applied, as LocalFn.permute applies it, to its outer
    (side 0) or inner (side 1) factor: each pair's monomial on that side is
    permuted and reduced."""
    arity = te._space[side]
    terms: Dict[tuple, int | Fraction] = {}
    for pair, c in te.terms.items():
        for mono, d in _reduce([_permute_gterm(pair[side], perm, c)], arity).items():
            key = (mono, pair[1]) if side == 0 else (pair[0], mono)
            terms[key] = terms.get(key, 0) + d
    return te._like(terms)


def _random_monomial(rng, arity_cap):
    """(n, f): a random arity n in 2..arity_cap and a basis monomial f of it,
    drawn from a MonomialBasis, which is counted and never listed."""
    n = rng.randint(2, arity_cap)
    for _ in range(40):
        g = rng.randint(-2, 3)
        pole = rng.randint(max(0, g), max(0, g) + 2)
        monos = MonomialBasis(n, g, pole)
        if monos:
            return n, LocalFn.from_monomial(n, rng.choice(monos))
    return n, LocalFn.one(n)


def verify_axioms(arity_cap: int = 4, samples: int = 20, truncation: int = 4, seed: int = 0):
    """Spot-check equivariance, commutativity of insertions into disjoint
    blocks, and coassociativity of iterated insertions on random basis
    monomials, component-wise for all gradings within the truncation.

    Returns {"checks": [...], "failures": int}; each check records its kind,
    input, slots, component, and status, with both sides kept on failure.
    """
    if truncation < 1:
        raise SchemaError("truncation order must be >= 1")
    if arity_cap < 2:
        raise SchemaError("arity cap must be >= 2")
    if samples < 0:
        raise SchemaError("sample count must be >= 0")
    rng = random.Random(seed)
    checks = []

    def record(kind, text, slots, component, ok, lhs, rhs, show=str):
        entry = {
            "kind": kind,
            "input": text,
            "slots": slots,
            "component": component,
            "status": "ok" if ok else "fail",
        }
        if not ok:
            # both sides are formatted only for the report of a failure
            entry["lhs"] = show(lhs)
            entry["rhs"] = show(rhs)
        checks.append(entry)

    for _ in range(samples):
        # one monomial can head several terms of a sample's sweep: _compose
        # expands each (monomial, block, window) once, and the sample drops
        # its memo and reductions
        memo: Dict[tuple, dict] = {}
        reduced = {}
        kind = rng.choice(["equivariance", "commutativity", "coassociativity"])
        n, f = _random_monomial(rng, arity_cap)
        (mono,) = f.terms
        text = str(f)
        T = truncation
        if kind == "equivariance":
            m = rng.randint(0, n - 1)
            block = n - m
            omega = list(range(1, block + 1))
            rng.shuffle(omega)
            sigma = list(range(1, m + 1)) + [m + omega[j] for j in range(block)]
            tau_head = list(range(1, m + 1))
            rng.shuffle(tau_head)
            tau = tau_head + list(range(m + 1, n + 1))
            rho = tau_head + [m + 1]
            base = insert_components(f, m, -T, T)
            lhs_in = insert_components(f.permute(sigma), m, -T, T)
            lhs_out = insert_components(f.permute(tau), m, -T, T) if m >= 2 else None
            for p in range(-T, T + 1):
                rhs_in = _permuted(base[p], 1, omega)
                record("equivariance-inner", text, {"m": m, "perm": omega}, p,
                       lhs_in[p] == rhs_in, lhs_in[p], rhs_in)
                if m >= 2:
                    rhs_out = _permuted(base[p], 0, rho)
                    record("equivariance-outer", text, {"m": m, "perm": tau_head}, p,
                           lhs_out[p] == rhs_out, lhs_out[p], rhs_out)
        elif kind == "commutativity":
            a = rng.randint(1, n - 1)
            b = rng.randint(1, n - a)
            posA = rng.randint(1, n - a - b + 1)
            posB = rng.randint(posA + a, n - b + 1)
            show = _show_expanded((n - a - b + 2, a, b))
            cells = _commutativity_grid(mono, T, posA, a, posB, b, memo, reduced)
            for (qA, qB), (one, two) in cells.items():
                record("commutativity", text, {"A": [posA, a], "B": [posB, b]}, [qA, qB],
                       _same_sum(one, two), one, two, show)
        else:
            b = rng.randint(2, n)
            b_sub = rng.randint(1, b - 1)
            show = _show_expanded((n - b + 1, b - b_sub + 1, b_sub))
            cells = _coassoc_grid(mono, T, b, b_sub, memo, reduced)
            for (p_out, p_mid), (one, two) in cells.items():
                record("coassociativity", text, {"block": b, "sub": b_sub}, [p_out, p_mid],
                       _same_sum(one, two), one, two, show)
    failures = sum(1 for c in checks if c["status"] == "fail")
    return {"checks": checks, "failures": failures}


def _report_json(rep) -> str:
    """The JSON text of a verify_axioms report, equal to json.dumps(rep,
    sort_keys=True) byte for byte.  The text of "input", "kind" and "slots"
    is formatted once per run of consecutive checks that share them; each
    check then adds its component, and both sides when it failed."""
    records = []
    shared = None
    for c in rep["checks"]:
        if shared != (c["kind"], c["input"], c["slots"]):
            shared = (c["kind"], c["input"], c["slots"])
            head = f', "input": {json.dumps(c["input"])}, "kind": {json.dumps(c["kind"])}'
            slots = f', "slots": {json.dumps(c["slots"], sort_keys=True)}'
            ok = f'{head}{slots}, "status": "ok"}}'
        # a component is an int or a list of ints, whose str is its JSON text
        if c["status"] == "ok":
            records.append(f'{{"component": {c["component"]}{ok}')
        else:
            records.append(f'{{"component": {c["component"]}{head}, "lhs": {json.dumps(c["lhs"])}, '
                           f'"rhs": {json.dumps(c["rhs"])}{slots}, "status": "fail"}}')
    return f'{{"checks": [{", ".join(records)}], "failures": {rep["failures"]}}}'
