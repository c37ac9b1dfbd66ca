"""Small exact helpers used across modules: sparse sums and sparse elimination.

Values are exact: an int where the value is integral, a Fraction otherwise.
Elimination is fraction-free: rows are cleared to integers and reduced by
cross-multiplication with gcd content division (in the style of Bareiss,
Math. Comp. 22, 1968).  _kernel returns the kernel as an integer echelon
with one common scale; a linear system is solved through the kernel of its
augmented rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Tuple

from .errors import ArityMismatch


def _exact(c) -> int | Fraction:
    """The rational c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def gbinom(m: int, j: int) -> int:
    """Generalized binomial coefficient C(m, j) for any integer m, j >= 0.

    For m < 0 this is (-1)^j * C(j - m - 1, j); always an integer.
    """
    if j < 0:
        return 0
    if m >= 0:
        return comb(m, j) if j <= m else 0
    return (-1) ** j * comb(j - m - 1, j)


def add_into(acc: dict, terms: dict, c=1) -> dict:
    """acc += c * terms for sparse {key: number} dicts, in place; returns acc.

    A key whose sum reaches zero is deleted, so acc never stores a zero,
    and an integral value is stored as an int.  A no-op when c == 0.
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
            acc[k] = v if type(v) is int or v.denominator != 1 else v.numerator
        elif old is not None:
            del acc[k]
    return acc


class SparseSum:
    """Exact linear combination {key: coefficient} in one space, with no zero
    coefficients stored.

    A subclass is built as Cls(space, terms), or overrides _like, with a
    constructor that drops zero coefficients; it exposes the space as the
    property _space, names it in _space_name for errors, and orders its keys
    for printing with the static _sort_key.  Instances are immutable by
    convention; all operations return new values.
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
        if type(c) is not int:
            c = _exact(c)
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


def _integral(row: dict) -> Dict[int, int]:
    """The nonzero entries of a row of ints and Fractions, scaled by the lcm
    of their denominators to integers, as a new dict.  An all-int row is
    copied as it is."""
    dens = [v.denominator for v in row.values() if type(v) is not int]
    if not dens:
        return {c: v for c, v in row.items() if v}
    den = lcm(*dens)
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """The integer row divided by the gcd of its entries, with its leading
    (smallest-column) entry made positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cross_reduce(row: dict, pivots: Dict[int, Dict[int, int]], scale: int) -> dict:
    """scale * row - sum_p row[p] (scale / d_p) R_p over the pivot columns p
    of row, for integer echelon rows R_p whose leads d_p = R_p[p] divide
    scale.

    Every R_p is zero at the other pivots, so the result vanishes at every
    pivot column; it is an int row when row is.
    """
    out = {c: scale * v for c, v in row.items()} if scale != 1 else dict(row)
    for p in [p for p in row if p in pivots]:
        prow = pivots[p]
        add_into(out, prow, -row[p] * (scale // prow[p]))
    return out


def _echelon(rows, ncols: int | None = None, pivots=None) -> Dict[int, Dict[int, int]]:
    """Fraction-free reduced echelon form of sparse rows {column: value} with
    int or Fraction values, as {pivot column: integer row}.  Given an
    echelon it returned as pivots, it continues that echelon in place and
    returns it: the result is the echelon of the earlier rows and these.

    Rows are taken one at a time and cleared to integers (one lcm of
    denominators per row).  A row with entries at the pivot columns found so
    far is reduced against them all at once by _cross_reduce, with scale the
    lcm of their leads; a row with none is taken as it is.  A nonzero
    remainder is divided by its content (the gcd of its entries), its lead
    is made positive, and it becomes a new pivot row at its smallest column,
    cleared the same way from the earlier pivot rows.  Every pivot row is
    primitive, starts at its pivot with a positive lead and is zero at the
    other pivots, so dividing each by its lead gives the unique reduced
    echelon form of the row space.  No Fraction is formed.  Given the
    number of columns, it stops once every column is a pivot: every pivot
    row is then {p: 1}, and no further row can change them.
    """
    if pivots is None:
        pivots = {}
    for row in rows:
        row = _integral(row)
        leads = [pivots[p][p] for p in row if p in pivots]
        if leads:
            row = _cross_reduce(row, pivots, lcm(*leads))
        if not row:
            continue
        row = _primitive(row)
        p = min(row)
        lead = row[p]
        for q, other in pivots.items():
            a = other.get(p)
            if a:
                g = gcd(a, lead)
                out = {c: (lead // g) * v for c, v in other.items()}
                add_into(out, row, -(a // g))
                pivots[q] = _primitive(out)
        pivots[p] = row
        if len(pivots) == ncols:
            break
    return pivots


def _kernel(rows, ncols: int, pivots=None) -> Tuple[int, Dict[int, Dict[int, int]]]:
    """Kernel basis of sparse rows whose columns are all below ncols, as an
    integer echelon with one scale: (L, {f: v_f}) with one vector per free
    column f in increasing order.  Given an echelon _echelon returned as
    pivots, it continues it with rows (which may be empty), so the kernel
    of rows fed in batches is read off with no second elimination.

    Read off _echelon in one pass: each pivot row R_p is zero at the other
    pivots, so every other entry of it sits at a free column f.  With L the
    lcm of the leads R_p[p] of the pivot rows that have such an entry, v_f
    is L at f and -R_p[f] * (L / R_p[p]) at each pivot p, zero at the other
    free columns: L times the kernel vector that is 1 at f.  Each v_f is
    nonzero only at f and at pivots below it, so the v_f form a reduced
    echelon, each with the lead L at its last column f, ready for
    _cross_reduce with scale L.  As every R_p is primitive, L is the lcm of
    the denominators of the kernel vectors that are 1 at their free column.
    """
    pivots = _echelon(rows, ncols, pivots)
    scale = lcm(*(row[p] for p, row in pivots.items() if len(row) > 1))
    kernel = {f: {f: scale} for f in range(ncols) if f not in pivots}
    for p, row in pivots.items():
        step = scale // row[p]
        for f, v in row.items():
            if f != p:
                kernel[f][p] = -v * step
    return scale, kernel

