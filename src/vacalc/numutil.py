"""Small exact combinatorial helpers used across modules."""

from __future__ import annotations

from math import comb


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
