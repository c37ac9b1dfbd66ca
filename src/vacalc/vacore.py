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
* words of weight below the connectivity bound are zero.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from . import fockoracle
from .cooperad import SortSignature, in_connective
from .errors import (
    BadPartition,
    NoLocalMatch,
    NonTerminating,
    SchemaError,
    TruncationTooSmall,
    UnboundedOPE,
    WeightMismatch,
)
from .localfn import LocalFn, basis_monomials
from .numutil import falling, gbinom

Word = Tuple[Tuple[Tuple[int, int], ...], Optional[int]]  # (modes, tail)

VACUUM_WORD: Word = ((), None)

_MAX_SINGULAR = 64


def _word(modes, tail=None) -> Word:
    return (tuple(modes), tail)


class VAElement:
    """Rational combination of mode words, bound to one presentation."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres: "Presentation", terms: Dict[Word, Fraction]):
        self.pres = pres
        self.terms = {w: Fraction(c) for w, c in terms.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "VAElement") -> "VAElement":
        assert self.pres is other.pres
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                del out[w]
        return VAElement(self.pres, out)

    def __neg__(self):
        return VAElement(self.pres, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "VAElement":
        c = Fraction(c)
        if c == 0:
            return VAElement(self.pres, {})
        return VAElement(self.pres, {w: v * c for w, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, VAElement)
            and self.pres is other.pres
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def weight(self):
        """Weight of a homogeneous element; None for 0."""
        weights = {self.pres.word_weight(w) for w in self.terms}
        if not weights:
            return None
        if len(weights) > 1:
            raise WeightMismatch(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def vacuum_coefficient(self) -> Fraction:
        return self.terms.get(VACUUM_WORD, Fraction(0))

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
        for (modes, tail), c in self.sorted_terms():
            out.append(
                {
                    "coeff": str(c),
                    "word": [[self.pres.gen_name(g), n] for g, n in modes],
                    "tail": "vacuum" if tail is None else self.pres.gen_name(tail),
                }
            )
        return out


class Presentation:
    """Generators with weights, a completed singular-product table, central
    parameters, and a connectivity bound."""

    def __init__(
        self,
        generators: Sequence[Tuple[str, int]],
        relations: Dict[Tuple[int, int, int], Dict[Word, Fraction]],
        central: Dict[str, Fraction],
        connectivity: int = 0,
        lattice: Optional[dict] = None,
        ope_closed: bool = True,
        step_bound: int = 10**6,
        label: str = "custom",
    ):
        self.gens = list(generators)
        self.names = [name for name, _ in self.gens]
        self.weights = [w for _, w in self.gens]
        if len(set(self.names)) != len(self.names):
            raise SchemaError("generator names must be unique")
        for name, w in self.gens:
            if w < connectivity:
                raise WeightMismatch(
                    f"generator {name} has weight {w} below connectivity {connectivity}"
                )
        self.name2idx = {name: i for i, name in enumerate(self.names)}
        self.central = dict(central)
        self.connectivity = connectivity
        self.lattice = lattice
        self.ope_closed = ope_closed
        self.step_bound = step_bound
        self.label = label
        self.ope: Dict[Tuple[int, int, int], Dict[Word, Fraction]] = {}
        for (a, b, n), entry in relations.items():
            entry = {w: Fraction(c) for w, c in entry.items() if c != 0}
            if entry:
                self.ope[(a, b, n)] = entry
        self._validate_table()
        self._complete_by_skew()
        self._kbound: Dict[Tuple[int, int], int] = {}
        for a in range(len(self.gens)):
            for b in range(len(self.gens)):
                ns = [n for (x, y, n) in self.ope if (x, y) == (a, b)]
                self._kbound[(a, b)] = max(ns) if ns else -1
        self._prepend_cache: Dict[tuple, Dict[Word, Fraction]] = {}

    # -- bookkeeping -------------------------------------------------------

    def require_closed(self, what: str):
        if not self.ope_closed:
            raise SchemaError(
                f"{what} needs a table-closed presentation; {self.label} is "
                "realized explicitly instead (see lattice_check)"
            )

    def gen_index(self, name: str) -> int:
        if name not in self.name2idx:
            raise SchemaError(f"unknown generator {name!r}")
        return self.name2idx[name]

    def gen_name(self, idx: int) -> str:
        return self.names[idx]

    def wt(self, idx: int) -> int:
        return self.weights[idx]

    def word_weight(self, word: Word) -> int:
        modes, tail = word
        w = 0 if tail is None else self.wt(tail)
        for g, n in modes:
            w += self.wt(g) - n - 1
        return w

    def word_str(self, word: Word) -> str:
        modes, tail = word
        body = "".join(f"{self.gen_name(g)}({n})" for g, n in modes)
        return body + ("1" if tail is None else self.gen_name(tail))

    def element(self, terms: Dict[Word, Fraction]) -> VAElement:
        return VAElement(self, terms)

    def zero(self) -> VAElement:
        return VAElement(self, {})

    def vacuum(self) -> VAElement:
        return VAElement(self, {VACUUM_WORD: Fraction(1)})

    def gen_element(self, name: str) -> VAElement:
        g = self.gen_index(name)
        return VAElement(self, {_word([(g, -1)]): Fraction(1)})

    def _validate_table(self):
        for (a, b, n), entry in self.ope.items():
            if n < 0:
                raise SchemaError("table entries are singular products only (n >= 0)")
            if n > _MAX_SINGULAR:
                raise UnboundedOPE(f"singular product at n={n} beyond bound {_MAX_SINGULAR}")
            want = self.wt(a) + self.wt(b) - n - 1
            for (modes, tail), _ in entry.items():
                if tail is not None or len(modes) > 1:
                    raise SchemaError(
                        "table entries must be combinations of derivatives of "
                        "generators and the vacuum"
                    )
                if modes and modes[0][1] > -1:
                    raise SchemaError("table entry words must use negative modes")
                got = self.word_weight((modes, tail))
                if got != want:
                    raise WeightMismatch(
                        f"[{self.gen_name(a)},{self.gen_name(b)}]_{n} has a word of "
                        f"weight {got}, expected {want}"
                    )

    def _complete_by_skew(self):
        """Fill products for pairs (b, a) with b > a from the (a, b) table:

            [b, a]_m = (-1)^(m+1) sum_j ((-1)^j / j!) T^j [a, b]_(m+j)
        """
        for a in range(len(self.gens)):
            for b in range(a + 1, len(self.gens)):
                top = max(
                    [n for (x, y, n) in self.ope if (x, y) == (a, b)], default=-1
                )
                for m in range(0, top + 1):
                    entry: Dict[Word, Fraction] = {}
                    for j in range(0, top - m + 1):
                        src = self.ope.get((a, b, m + j))
                        if not src:
                            continue
                        sign = Fraction((-1) ** (m + 1) * (-1) ** j, factorial(j))
                        for (modes, tail), c in src.items():
                            if not modes:
                                if j == 0:
                                    w2 = VACUUM_WORD
                                else:
                                    continue  # T kills the vacuum
                            else:
                                g, mode = modes[0]
                                s = -1 - mode
                                c = c * Fraction(factorial(s + j), factorial(s))
                                w2 = _word([(g, mode - j)])
                            entry[w2] = entry.get(w2, Fraction(0)) + sign * c
                    entry = {w: c for w, c in entry.items() if c}
                    if entry:
                        if (b, a, m) in self.ope and self.ope[(b, a, m)] != entry:
                            raise SchemaError(
                                f"declared [{self.gen_name(b)},{self.gen_name(a)}]_{m} "
                                "conflicts with skew symmetry"
                            )
                        self.ope[(b, a, m)] = entry

    # -- straightening -----------------------------------------------------

    def _entry_mode(self, entry: Dict[Word, Fraction], N: int):
        """Mode N of a table entry: list of (gen, mode, coeff) plus the
        identity coefficient (from vacuum words, delta at N == -1)."""
        id_coeff = Fraction(0)
        parts = []
        for (modes, tail), c in entry.items():
            if not modes:
                if N == -1:
                    id_coeff += c
                continue
            g, mode = modes[0]
            s = -1 - mode  # the word is (1/s!) T^s g
            coeff = c * Fraction((-1) ** s * falling(N, s), factorial(s))
            if coeff:
                parts.append((g, N - s, coeff))
        return parts, id_coeff

    def _prepend(self, g: int, n: int, word: Word) -> Dict[Word, Fraction]:
        """Normal form of g(n) applied to a normal word."""
        key = (g, n, word)
        cached = self._prepend_cache.get(key)
        if cached is not None:
            return cached
        modes, tail = word
        out: Dict[Word, Fraction] = {}
        if self.wt(g) - n - 1 + self.word_weight(word) < self.connectivity:
            pass
        elif not modes:
            if n <= -1:
                out[_word([(g, n)])] = Fraction(1)
        else:
            h, m = modes[0]
            if n <= -1 and (n > m or (n == m and g >= h)):
                out = {(((g, n),) + modes, tail): Fraction(1)}
            else:
                rest: Word = (modes[1:], tail)
                acc: Dict[Word, Fraction] = {}

                def bump(d, w, c):
                    s = d.get(w, Fraction(0)) + c
                    if s:
                        d[w] = s
                    else:
                        del d[w]

                for w2, c2 in self._prepend(g, n, rest).items():
                    for w3, c3 in self._prepend(h, m, w2).items():
                        bump(acc, w3, c2 * c3)
                for j in range(0, self._kbound[(g, h)] + 1):
                    entry = self.ope.get((g, h, j))
                    if not entry:
                        continue
                    cnj = gbinom(n, j)
                    if cnj == 0:
                        continue
                    parts, id_coeff = self._entry_mode(entry, n + m - j)
                    if id_coeff:
                        bump(acc, rest, cnj * id_coeff)
                    for g2, n2, cc in parts:
                        for w3, c3 in self._prepend(g2, n2, rest).items():
                            bump(acc, w3, cnj * cc * c3)
                out = acc
        self._prepend_cache[key] = out
        if len(self._prepend_cache) > self.step_bound:
            raise NonTerminating("rewrite cache exceeded the step bound")
        return out

    def prepend_mode(self, g: int, n: int, el: VAElement) -> VAElement:
        out: Dict[Word, Fraction] = {}
        for word, c in el.terms.items():
            for w2, c2 in self._prepend(g, n, word).items():
                s = out.get(w2, Fraction(0)) + c * c2
                if s:
                    out[w2] = s
                else:
                    del out[w2]
        return VAElement(self, out)

    def _nf_word_suffix(self, word: Word) -> Dict[Word, Fraction]:
        modes, tail = word
        el: Dict[Word, Fraction] = {VACUUM_WORD: Fraction(1)}
        if tail is not None:
            el = {_word([(tail, -1)]): Fraction(1)}
        for g, n in reversed(modes):
            nxt: Dict[Word, Fraction] = {}
            for w, c in el.items():
                for w2, c2 in self._prepend(g, n, w).items():
                    s = nxt.get(w2, Fraction(0)) + c * c2
                    if s:
                        nxt[w2] = s
                    else:
                        del nxt[w2]
            el = nxt
        return el

    def _nf_word_bubble(self, word: Word) -> Dict[Word, Fraction]:
        """Worklist variant swapping the leftmost offender; used to check
        that the normal form does not depend on the rewriting strategy."""
        out: Dict[Word, Fraction] = {}
        modes, tail = word
        if tail is not None:
            modes = modes + ((tail, -1),)
        stack = [(Fraction(1), list(modes))]
        steps = 0
        while stack:
            steps += 1
            if steps > self.step_bound:
                raise NonTerminating(f"exceeded {self.step_bound} rewrite steps")
            coeff, ms = stack.pop()
            if self.word_weight((tuple(ms), None)) < self.connectivity:
                continue
            if ms and ms[-1][1] >= 0:
                continue  # annihilates the vacuum
            # push the rightmost nonnegative mode toward the vacuum first
            # (its right neighbor is negative, so the swap makes progress),
            # then sort the all-negative word by adjacent swaps
            idx = None
            for i in range(len(ms) - 2, -1, -1):
                if ms[i][1] >= 0:
                    idx = i
                    break
            if idx is None:
                for i in range(len(ms) - 1):
                    (a, m), (b, k) = ms[i], ms[i + 1]
                    if m < k or (m == k and a < b):
                        idx = i
                        break
            if idx is None:
                w = _word(ms)
                s = out.get(w, Fraction(0)) + coeff
                if s:
                    out[w] = s
                else:
                    del out[w]
                continue
            (a, m), (b, k) = ms[idx], ms[idx + 1]
            swapped = ms[:idx] + [(b, k), (a, m)] + ms[idx + 2 :]
            stack.append((coeff, swapped))
            for j in range(0, self._kbound[(a, b)] + 1):
                entry = self.ope.get((a, b, j))
                if not entry:
                    continue
                cnj = gbinom(m, j)
                if cnj == 0:
                    continue
                parts, id_coeff = self._entry_mode(entry, m + k - j)
                if id_coeff:
                    stack.append((coeff * cnj * id_coeff, ms[:idx] + ms[idx + 2 :]))
                for g2, n2, cc in parts:
                    stack.append(
                        (coeff * cnj * cc, ms[:idx] + [(g2, n2)] + ms[idx + 2 :])
                    )
        return out

    def normal_form(self, el: VAElement, strategy: str = "suffix") -> VAElement:
        self.require_closed("normal_form")
        nf = self._nf_word_suffix if strategy == "suffix" else self._nf_word_bubble
        out: Dict[Word, Fraction] = {}
        for word, c in el.terms.items():
            for w2, c2 in nf(word).items():
                s = out.get(w2, Fraction(0)) + c * c2
                if s:
                    out[w2] = s
                else:
                    del out[w2]
        return VAElement(self, out)

    def word_element(self, modes, tail=None) -> VAElement:
        """Normal form of an explicit mode word."""
        return self.normal_form(VAElement(self, {_word(modes, tail): Fraction(1)}))

    # -- composite modes and the bracket calculus ---------------------------

    def _word_mode(self, uword: Word, K: int, xword: Word, xcoeff: Fraction) -> Dict[Word, Fraction]:
        """u(K) applied to one normal word, for u a normal word.

        Words of length one are generator modes; longer words reduce with

        (g(m)v)(K) = sum_i (-1)^i C(m,i) [ g(m-i) (v(K+i) x)
                                           - (-1)^m v(m+K-i) (g(i) x) ].
        """
        modes, tail = uword
        out: Dict[Word, Fraction] = {}

        def bump(w, c):
            s = out.get(w, Fraction(0)) + c
            if s:
                out[w] = s
            else:
                del out[w]

        if not modes:
            if K == -1:
                bump(xword, xcoeff)
            return out
        g, m = modes[0]
        rest: Word = (modes[1:], tail)
        if not modes[1:] and m == -1:
            for w2, c2 in self._prepend(g, K, xword).items():
                bump(w2, xcoeff * c2)
            return out
        wt_v = self.word_weight(rest)
        wt_x = self.word_weight(xword)
        k = self.connectivity
        bound1 = wt_v + wt_x - K - 1 - k
        bound2 = self.wt(g) + wt_x - 1 - k
        imax = max(bound1, bound2)
        if m >= 0:
            imax = min(imax, m)
        sign_m = (-1) ** (m % 2)
        for i in range(0, imax + 1):
            c = (-1) ** (i % 2) * gbinom(m, i)
            if c == 0:
                continue
            if i <= bound1:
                inner = self._word_mode(rest, K + i, xword, xcoeff)
                for w2, c2 in inner.items():
                    for w3, c3 in self._prepend(g, m - i, w2).items():
                        bump(w3, c * c2 * c3)
            if i <= bound2:
                gi = self._prepend(g, i, xword)
                for w2, c2 in gi.items():
                    for w3, c3 in self._word_mode(rest, m + K - i, w2, Fraction(1)).items():
                        bump(w3, -sign_m * c * xcoeff * c2 * c3)
        return out

    def apply_mode(self, a: VAElement, n: int, x: VAElement) -> VAElement:
        """a(n)x for arbitrary states a, x."""
        a = self.normal_form(a)
        x = self.normal_form(x)
        out: Dict[Word, Fraction] = {}
        for uw, cu in a.terms.items():
            for xw, cx in x.terms.items():
                for w, c in self._word_mode(uw, n, xw, Fraction(1)).items():
                    s = out.get(w, Fraction(0)) + cu * cx * c
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return VAElement(self, out)

    def derivative(self, x: VAElement) -> VAElement:
        """Translation operator: [T, g(n)] = -n g(n-1), T 1 = 0."""
        x = self.normal_form(x)
        out = self.zero()
        for (modes, tail), c in x.terms.items():
            for i, (g, n) in enumerate(modes):
                shifted = modes[:i] + ((g, n - 1),) + modes[i + 1 :]
                out = out + self.word_element(shifted, tail).scale(c * (-n))
        return out

    def bracket(self, a: VAElement, b: VAElement, n: int) -> VAElement:
        return self.apply_mode(a, n, b)


# ---------------------------------------------------------------------------
# Spanning words, dimensions, singular products
# ---------------------------------------------------------------------------

def _require_positive_weights(pres: Presentation, what: str):
    if any(w < 1 for w in pres.weights):
        raise SchemaError(f"{what} needs all generator weights >= 1")


def spanning_basis(pres: Presentation, weight: int) -> List[Word]:
    """All normal-form words of the given weight, in lexicographic order."""
    pres.require_closed("spanning enumeration")
    _require_positive_weights(pres, "spanning enumeration")
    if weight < 0:
        return []
    if weight == 0:
        return [VACUUM_WORD]
    out: List[Word] = []
    ngen = len(pres.gens)
    # modes are bounded below by the weight budget: wt(g) - n - 1 <= weight
    lowest = -(weight + 1)

    def rec_bounded(remaining, prev, acc):
        if remaining == 0:
            out.append(_word(list(acc)))
            return
        n_top = prev[0]
        for n in range(n_top, lowest - 1, -1):
            for g in range(ngen - 1, -1, -1):
                if (n, g) > prev:
                    continue
                step = pres.wt(g) - n - 1
                if 0 < step <= remaining:
                    acc.append((g, n))
                    rec_bounded(remaining - step, (n, g), acc)
                    acc.pop()

    rec_bounded(weight, (-1, ngen - 1), [])
    return sorted(out)


def graded_dims(pres: Presentation, w_max: int) -> List[int]:
    """Spanning-set cardinalities per weight (equal to true dimensions where
    an oracle realization certifies independence).  Lattice presentations
    report the dimensions of their explicit realization instead."""
    if pres.lattice is not None:
        return fockoracle.lattice_graded_dims(w_max, pres.lattice["norm"])
    return [len(spanning_basis(pres, w)) for w in range(w_max + 1)]


def ope_singular(pres: Presentation, a: str, b: str):
    """All nonzero singular products of two generators, as (n, element)."""
    pres.require_closed("singular products")
    ai, bi = pres.gen_index(a), pres.gen_index(b)
    out = []
    for n in range(0, pres._kbound[(ai, bi)] + 1):
        entry = pres.ope.get((ai, bi, n))
        if entry:
            out.append((n, VAElement(pres, entry)))
    return out


def check_uniform_bound(pres: Presentation, a: str, b: str) -> int:
    """Largest n with a(n)b nonzero; -1 when the product is regular."""
    pres.require_closed("the uniformity bound")
    return pres._kbound[(pres.gen_index(a), pres.gen_index(b))]


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------

def _rref(rows) -> Dict[int, Dict[int, Fraction]]:
    """Reduced row echelon form of sparse rows {column: value} over the
    rationals, as {pivot column: row}.

    Rows are taken one at a time.  Each is reduced by the pivot rows found
    so far; a nonzero remainder becomes a new pivot row at its smallest
    column, scaled to 1 there and eliminated from the earlier pivot rows.
    Every pivot row starts at its pivot and is zero at the other pivots, so
    the result is the unique reduced echelon form of the row space.
    """
    pivots: Dict[int, Dict[int, Fraction]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for p in [c for c in row if c in pivots]:
            f = row[p]
            for c, v in pivots[p].items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        if not row:
            continue
        p = min(row)
        lead = Fraction(row[p])
        row = {c: v / lead for c, v in row.items()}
        for other in pivots.values():
            f = other.get(p)
            if f:
                for c, v in row.items():
                    x = other.get(c, 0) - f * v
                    if x:
                        other[c] = x
                    else:
                        del other[c]
        pivots[p] = row
    return pivots


def _kernel(rows, ncols: int) -> List[Dict[int, Fraction]]:
    """Kernel basis of the sparse rows, one vector {column: value} per free
    column in increasing order, with 1 at that column."""
    pivots = _rref(rows)
    kernel = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for p, row in pivots.items():
            if free in row:
                vec[p] = -row[free]
        kernel.append(vec)
    return kernel


def _solve(rows, ncols: int):
    """Solve sparse rows over columns 0..ncols-1 whose right-hand side sits
    at column ncols.

    Returns the unique solution as a list, None when underdetermined, or the
    string "inconsistent".
    """
    pivots = _rref(rows)
    if ncols in pivots:
        return "inconsistent"
    if len(pivots) < ncols:
        return None
    return [pivots[c].get(ncols, Fraction(0)) for c in range(ncols)]


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


def _lowering_words(pres: Presentation, drop: int):
    """Mode words with every mode g(m), m >= wt(g), lowering by exactly
    ``drop``, in weakly decreasing mode order."""
    out = []
    ngen = len(pres.gens)
    top = drop + max(pres.weights) + 1

    def rec(remaining, prev, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for m in range(min(prev[0], top), 0, -1):
            for g in range(ngen - 1, -1, -1):
                if (m, g) > prev:
                    continue
                if m < pres.wt(g):
                    continue
                step = m + 1 - pres.wt(g)
                if 0 < step <= remaining:
                    acc.append((g, m))
                    rec(remaining - step, (m, g), acc)
                    acc.pop()

    rec(drop, (top, ngen - 1), [])
    return sorted(out)


def radical_slice(pres: Presentation, weight: int) -> RadicalSlice:
    """Kernel of all lowering words into weight <= 0 on the given weight.

    Weights below the connectivity bound vanish identically, so only the
    landings at weight exactly 0 give nontrivial linear conditions; with all
    generator weights >= 1 that target space is spanned by the vacuum.
    """
    pres.require_closed("the radical slice")
    if pres.connectivity != 0:
        raise SchemaError("radical slices are defined for connectivity 0")
    _require_positive_weights(pres, "the radical slice")
    basis = spanning_basis(pres, weight)
    rows = []
    for word in _lowering_words(pres, weight):
        row = {}
        for j, b in enumerate(basis):
            el = VAElement(pres, {b: Fraction(1)})
            for g, m in reversed(word):
                el = pres.prepend_mode(g, m, el)
            row[j] = el.vacuum_coefficient()
        rows.append(row)
    kernel_elements = [
        VAElement(pres, {basis[j]: c for j, c in vec.items()})
        for vec in _kernel(rows, len(basis))
    ]
    return RadicalSlice(weight, basis, kernel_elements)


# ---------------------------------------------------------------------------
# Vacuum correlation functions
# ---------------------------------------------------------------------------

def _mono_series_coeff(mono, exps) -> Fraction:
    """Coefficient of prod z_i^(e_i) in the expansion of a basis monomial on
    the region |z_r| > ... > |z_1|, where (z_m - z_i)^k expands as
    sum_s C(k, s) (-1)^s z_i^s z_m^(k-s).

    Processing owners from the top variable down determines every expansion
    order s uniquely, so this is a closed-form lookup.
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


def _mono_series_support(mono, radius: int) -> Dict[Tuple[int, ...], int]:
    """Every nonzero coefficient of the expansion in _mono_series_coeff whose
    exponents all lie in [-radius, radius], keyed by exponent tuple.

    Walks the owners from the top variable down as _mono_series_coeff does,
    but enumerates each expansion order s instead of solving for it: the
    exponent of z_m is its own power (l for z_m^l, k - s for (z_m - z_i)^k)
    plus the orders s that higher owners sent down to it.  Basis monomials
    have k < 0, so C(k, s) never vanishes.
    """
    r = len(mono)
    exps = [0] * r
    inflow = [0] * r
    out: Dict[Tuple[int, ...], int] = {}

    def walk(m, coeff):
        if m == 0:
            out[tuple(exps)] = coeff
            return
        fac = mono[m - 1]
        if fac[0] == "p":
            exps[m - 1] = fac[1] + inflow[m - 1]
            if exps[m - 1] <= radius:
                walk(m - 1, coeff)
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
            walk(m - 1, coeff * gbinom(k, s) * (-1) ** (s % 2))
            inflow[i - 1] -= s

    walk(r, 1)
    return out


def npoint_vacuum(pres: Presentation, gen_names: Sequence[str], pole_bound: int) -> LocalFn:
    """The local function whose expansion on |z_r| > ... > |z_1| matches the
    vacuum matrix series of the given generator insertions.

    An ansatz over the connectivity-bounded basis monomials is solved against
    exactly computed series coefficients and then re-verified on a larger
    exponent window; NoLocalMatch reports a series that is not local within
    the pole bound.

    The linear system has one sparse row per window tuple (every exponent in
    [-radius, radius], summing to minus the total weight).  Its entries come
    from each candidate's nonzero series coefficients on the window
    (_mono_series_support) and its right-hand side is the series at that
    tuple.  A tuple where every candidate vanishes is still a row, so the
    series must vanish there too.  The re-verification evaluates each
    monomial with the closed form _mono_series_coeff instead.
    """
    if not pres.ope_closed:
        raise SchemaError("correlators need a table-closed presentation")
    r = len(gen_names)
    if not 1 <= r <= 4:
        raise BadPartition("between 1 and 4 insertions supported")
    gidx = [pres.gen_index(name) for name in gen_names]
    sorts = tuple(pres.wt(g) for g in gidx)
    g_total = sum(sorts)
    sig = SortSignature(0, sorts)
    candidates = [
        m
        for m in basis_monomials(r, g_total, pole_bound)
        if in_connective(LocalFn.from_monomial(r, m), pres.connectivity, sig)
    ]

    series_cache: Dict[tuple, Fraction] = {}

    def series(exps) -> Fraction:
        key = tuple(exps)
        if key not in series_cache:
            modes = [(gidx[i], -exps[i] - 1) for i in range(r)][::-1]
            el = pres.word_element(modes)
            series_cache[key] = el.vacuum_coefficient()
        return series_cache[key]

    def window_tuples(radius):
        out = []

        def rec(i, acc, total):
            if i == r:
                if total == -g_total:
                    out.append(tuple(acc))
                return
            for e in range(-radius, radius + 1):
                rest_min = -radius * (r - i - 1)
                rest_max = radius * (r - i - 1)
                t = total + e
                if t + rest_min <= -g_total <= t + rest_max:
                    acc.append(e)
                    rec(i + 1, acc, t)
                    acc.pop()

        rec(0, [], 0)
        return out

    radius = pole_bound + abs(g_total) + 1
    max_radius = radius + 6
    solution = None
    while radius <= max_radius:
        row_of = {e: {} for e in window_tuples(radius)}
        for j, m in enumerate(candidates):
            for e, c in _mono_series_support(m, radius).items():
                row_of[e][j] = c
        for e, row in row_of.items():
            row[len(candidates)] = series(e)
        sol = _solve(row_of.values(), len(candidates))
        if sol == "inconsistent":
            raise NoLocalMatch(
                f"series of {list(gen_names)} has no local match within pole bound {pole_bound}"
            )
        if sol is not None:
            solution = sol
            break
        radius += 2
    if solution is None:
        raise NoLocalMatch("ansatz underdetermined; increase the pole bound window")
    result = LocalFn(r, {m: c for m, c in zip(candidates, solution) if c})
    for e in window_tuples(radius + 2):
        got = sum(
            (c * _mono_series_coeff(m, e) for m, c in result.terms.items()),
            Fraction(0),
        )
        if got != series(e):
            raise NoLocalMatch(f"verification window mismatch at exponents {e}")
    return result


# ---------------------------------------------------------------------------
# Lattice checks
# ---------------------------------------------------------------------------

def lattice_check(pres: Presentation, truncation: int = 4) -> dict:
    """Verify the lattice presentation relations in the explicit realization.

    Checks, per generator pair (s1*lambda, s2*lambda) with pairing
    p = s1*s2*norm:  the product modes vanish for n >= -p (the regularity
    relation), the weight-consistent mode of the opposite pair is the
    vacuum with coefficient one, and the realization dimensions match the
    theta-over-eta series for weights 0..3.
    """
    if pres.lattice is None:
        raise SchemaError("lattice_check needs a lattice presentation")
    norm = pres.lattice["norm"]
    if truncation < 4:
        raise TruncationTooSmall("relation scan needs truncation weight >= 4")
    checks = []
    failures = 0

    def record(kind, detail, ok, value=None):
        nonlocal failures
        entry = {"kind": kind, "detail": detail, "status": "ok" if ok else "fail"}
        if value is not None:
            entry["value"] = value
        if not ok:
            failures += 1
        checks.append(entry)

    for s1 in (1, -1):
        for s2 in (1, -1):
            pairing = s1 * s2 * norm
            state = fockoracle.vec(((), s2))
            for n in range(-pairing, -pairing + truncation + 1):
                got = fockoracle.lattice_vertex_act(s1, n, state, truncation, norm)
                record(
                    "regularity",
                    f"({s1:+d}L)({n})({s2:+d}L) = 0",
                    got == {},
                    fockoracle.vec_to_obj(got) if got else None,
                )
            lead = fockoracle.lattice_vertex_act(
                s1, -pairing - 1, state, truncation, norm
            )
            record(
                "leading-term",
                f"({s1:+d}L)({-pairing - 1})({s2:+d}L) nonzero",
                bool(lead),
                fockoracle.vec_to_obj(lead),
            )
    vac_mode = norm - 1
    for s in (1, -1):
        got = fockoracle.lattice_vertex_act(
            s, vac_mode, fockoracle.vec(((), -s)), truncation, norm
        )
        record(
            "unit-product",
            f"({s:+d}L)({vac_mode})({-s:+d}L) = 1",
            got == fockoracle.vec(),
            fockoracle.vec_to_obj(got),
        )
    dims = fockoracle.lattice_graded_dims(3, norm)
    series = fockoracle.series_dims(("theta_over_eta", norm), 3)
    record("graded-dims", f"realization dims 0..3 = {series}", dims == series, dims)
    return {"checks": checks, "failures": failures}


# ---------------------------------------------------------------------------
# Presets and documents
# ---------------------------------------------------------------------------

def preset_heisenberg(rank: int = 1, form=None) -> Presentation:
    """Abelian current algebra: rank generators of weight 1 with
    [a_i, a_j]_1 = <a_i, a_j> 1 and vanishing mode-0 bracket."""
    if rank < 1:
        raise SchemaError("rank must be >= 1")
    if form is None:
        form = [[Fraction(int(i == j)) for j in range(rank)] for i in range(rank)]
    try:
        form = [[_rational(x, "a form entry") for x in row] for row in form]
    except TypeError as exc:
        raise SchemaError("form must be rank x rank") from exc
    if len(form) != rank or any(len(row) != rank for row in form):
        raise SchemaError("form must be rank x rank")
    if any(form[i][j] != form[j][i] for i in range(rank) for j in range(rank)):
        raise SchemaError("form must be symmetric")
    names = ["a"] if rank == 1 else [f"a{i+1}" for i in range(rank)]
    gens = [(name, 1) for name in names]
    rel = {}
    for i in range(rank):
        for j in range(i, rank):
            if form[i][j]:
                rel[(i, j, 1)] = {VACUUM_WORD: form[i][j]}
    return Presentation(gens, rel, {}, connectivity=0, label=f"heisenberg(rank={rank})")


def preset_virasoro(c) -> Presentation:
    """One generator of weight 2 with the stress-tensor singular products."""
    c = Fraction(c)
    rel = {
        (0, 0, 0): {_word([(0, -2)]): Fraction(1)},
        (0, 0, 1): {_word([(0, -1)]): Fraction(2)},
        (0, 0, 3): {VACUUM_WORD: c / 2},
    }
    return Presentation(
        [("L", 2)], rel, {"c": c}, connectivity=0, label=f"virasoro(c={c})"
    )


def preset_lattice_rank1(norm: int = 2) -> Presentation:
    """Rank-1 even lattice generators (+L) and (-L); not table-closed, all
    computations go through the explicit realization (see lattice_check)."""
    if norm <= 0 or norm % 2:
        raise SchemaError("norm must be a positive even integer")
    if norm != 2:
        raise SchemaError("only norm 2 is supported")
    w = norm // 2
    gens = [("ep", w), ("em", w)]
    return Presentation(
        gens,
        {},
        {},
        connectivity=0,
        lattice={"norm": norm},
        ope_closed=False,
        label=f"lattice_rank1(norm={norm})",
    )


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


def load_presentation(doc) -> Presentation:
    """Build a presentation from a JSON document or preset description.

    Accepted shapes: {"preset": "virasoro", "c": "1/2"},
    {"preset": "heisenberg", "rank": 2, "form": [["1","0"],["0","1"]]},
    {"preset": "lattice_rank1", "norm": 2}, or the explicit form
    {"generators": [{"name", "weight"}], "central": {...},
     "relations": [{"a", "b", "n", "result": [{"coeff", "word", "tail"}]}]}.
    All rationals are strings like "p/q".
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
            return preset_virasoro(_rational(doc.get("c", 1), "c"))
        if name == "heisenberg":
            rank = _integer(doc.get("rank", 1), "rank")
            return preset_heisenberg(rank, doc.get("form"))
        if name == "lattice_rank1":
            return preset_lattice_rank1(_integer(doc.get("norm", 2), "norm"))
        raise SchemaError(f"unknown preset {name!r}")
    try:
        gens = [
            (g["name"], _integer(g["weight"], "a generator weight"))
            for g in doc["generators"]
        ]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad generators section: {exc}") from exc
    name2idx = {name: i for i, (name, _) in enumerate(gens)}
    central = {k: _rational(v, k) for k, v in doc.get("central", {}).items()}
    relations: Dict[Tuple[int, int, int], Dict[Word, Fraction]] = {}
    for rel in doc.get("relations", []):
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
        for term in rel.get("result", []):
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
            word = _word(modes)
            entry[word] = entry.get(word, Fraction(0)) + coeff
        if (a, b, n) in relations:
            raise SchemaError(f"duplicate relation for ({rel['a']},{rel['b']},{n})")
        relations[(a, b, n)] = entry
    return Presentation(
        gens,
        relations,
        central,
        connectivity=_integer(doc.get("connectivity", 0), "connectivity"),
        label="document",
    )


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
