"""Small exact helpers used across modules: sparse sums and sparse elimination."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Dict, List

from .errors import ArityMismatch


def gbinom(m: int, j: int) -> int:
    """Generalized binomial coefficient C(m, j) for any integer m, j >= 0.

    For m < 0 this is (-1)^j * C(j - m - 1, j); always an integer.
    """
    if j < 0:
        return 0
    if m >= 0:
        return comb(m, j) if j <= m else 0
    return (-1) ** j * comb(j - m - 1, j)


def falling(m: int, j: int) -> int:
    """Falling factorial m (m-1) ... (m-j+1); empty product for j == 0."""
    out = 1
    for s in range(j):
        out *= m - s
    return out


def add_into(acc: dict, terms: dict, c=1) -> dict:
    """acc += c * terms for sparse {key: number} dicts, in place; returns acc.

    A key whose sum reaches zero is deleted, so acc never stores a zero.
    A no-op when c == 0.
    """
    if not c:
        return acc
    scaled = c != 1
    get = acc.get
    for k, v in terms.items():
        if scaled:
            v = c * v
        old = get(k)
        if old is not None:
            v = old + v
        if v:
            acc[k] = v
        elif old is not None:
            del acc[k]
    return acc


class SparseSum:
    """Exact linear combination {key: coefficient} in one space, with no zero
    coefficients stored.

    A subclass is built as Cls(space, terms), with a constructor that drops
    zero coefficients; it exposes the space as the property _space, names it
    in _space_name for errors, and orders its keys for printing with the
    static _sort_key.  Instances are immutable by convention; all operations
    return new values.
    """

    __slots__ = ("terms",)

    def _like(self, terms: dict):
        return type(self)(self._space, terms)

    def _require_same_space(self, other):
        if self._space != other._space:
            raise ArityMismatch(f"{self._space_name} {self._space} vs {other._space}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._require_same_space(other)
        return self._like(add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return self._like({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self._space == other._space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]))


def _reduce_by(row: dict, pivots: dict) -> dict:
    """Clear, in place, row's entries at the pivots of reduced echelon rows."""
    for p in [c for c in row if c in pivots]:
        add_into(row, pivots[p], -row[p])
    return row


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
        row = _reduce_by({c: v for c, v in row.items() if v}, pivots)
        if not row:
            continue
        p = min(row)
        lead = Fraction(row[p])
        row = {c: v / lead for c, v in row.items()}
        for other in pivots.values():
            if p in other:
                add_into(other, row, -other[p])
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
