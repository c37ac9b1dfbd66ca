"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``width`` variables is a dict mapping exponent tuples to
exact coefficients, with zero coefficients never stored:

    Poly = dict[tuple[int, ...], int | Fraction]     # {} is the zero polynomial

A coefficient that numutil.add_into sums or scales is an int where it is
integral, a Fraction otherwise.

Only the handful of operations needed for pole bookkeeping live here:
building linear forms, ring arithmetic, integer powers, and the minimum
exponent of one distinguished variable (a valuation).  Everything is exact;
there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .numutil import add_into

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int | Fraction]

_ONE = Fraction(1)


def zero() -> Poly:
    return {}


def const(width: int, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {(0,) * width: c}


def linear(width: int, coeffs: dict[int, Fraction | int], c=0) -> Poly:
    """Build sum(coeffs[i] * x_i) + c."""
    units = {
        tuple(int(j == i) for j in range(width)): Fraction(a) for i, a in coeffs.items()
    }
    return add_into(const(width, c), units)


def add(p: Poly, q: Poly) -> Poly:
    return add_into(dict(p), q)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return {}
    out: Poly = {}
    for e1, c1 in p.items():
        add_into(out, {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in q.items()}, c1)
    return out


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {e: v * c for e, v in p.items()}


def power(p: Poly, k: int, width: int) -> Poly:
    """p**k for k >= 0, by binary powering."""
    if k < 0:
        raise ValueError("negative power of a polynomial")
    out = const(width, 1)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        base = mul(base, base) if k > 1 else base
        k >>= 1
    return out


def min_exponent(p: Poly, var: int) -> int | None:
    """Least exponent of variable ``var`` over the support; None if p == 0."""
    if not p:
        return None
    return min(e[var] for e in p)
