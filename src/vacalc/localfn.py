"""Exact canonical forms for local functions of z_1..z_n.

A *local function* is a rational function whose only poles sit on the
diagonals z_i = z_j; equivalently a polynomial in the variables z_i and the
inverse differences (z_i - z_j)^-1.  Every such function has a unique
expansion in the monomial basis built variable by variable: the factor
carried by variable m is either a pure power z_m^l (l >= 0) or a single
inverse-difference power (z_m - z_i)^k with i < m and k < 0.

Representation
--------------
    Factor    = ("p", l)          # z_m ** l, l >= 0
              | ("d", i, k)       # (z_m - z_i) ** k, i < m, k < 0
    Monomial  = tuple[Factor]     # one factor per variable, index m-1
    LocalFn   = arity + dict[Monomial, Fraction]   (no zero coefficients)

The grading used throughout is the negative of the scaling degree, so
(z_2 - z_1)^-2 is homogeneous of grading 2 and z_1 of grading -1.

Canonicalization runs partial fractions in the highest variable first and
recursively rewrites with two moves until each variable carries one factor:

    R2:  x^a (x-u)^k ...      ->  x^(a-1) (x-u)^(k+1) ... + u x^(a-1) (x-u)^k ...
    R1:  (x-u)^j (x-w)^k      ->  (u-w)^-1 [ (x-u)^j (x-w)^(k+1) - (x-u)^(j+1) (x-w)^k ]

Both moves strictly shrink (total pure degree + total pole depth), so the
rewriting terminates; uniqueness of the result is what the evaluation-based
property tests certify.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from . import polyq
from .errors import (
    ArityMismatch,
    BadIndex,
    BadPermutation,
    BadSubset,
    CoincidentPoints,
    IllegalPole,
    NotHomogeneous,
    ParseError,
)

Factor = Tuple
Monomial = Tuple[Factor, ...]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawExpr:
    """Parsed expression tree plus the declared arity.

    ``tree`` uses nested tuples: ("rat", Fraction), ("var", i),
    ("add"|"sub"|"mul", lhs, rhs), ("neg", node), ("pow", base, k).
    """

    arity: int
    tree: tuple


_TOKEN = re.compile(r"\s*(z\d+|\d+|\*\*|[-+*/^()])")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over the grammar

        expr   := ["-"] term (("+"|"-") term)*
        term   := factor ("*" factor)*
        factor := atom ["^" ["-"] int]
        atom   := "z" int | int ["/" int] | "(" expr ")"

    A negative exponent is legal only when the base is literally a
    difference of two distinct variables (parentheses ignored).
    """

    def __init__(self, tokens, arity):
        self.toks = tokens
        self.i = 0
        self.arity = arity

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        tree = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input: {self.toks[self.i:]}")
        return tree

    def expr(self):
        if self.peek() == "-":
            self.next()
            node = ("neg", self.term())
        else:
            node = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.next()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            if self.peek() == "-":
                self.next()
                sign = -1
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be an integer, got {tok!r}")
            k = sign * int(tok)
            if k < 0 and _as_difference(base) is None:
                raise IllegalPole(
                    "negative power allowed only on a difference z_i - z_j"
                )
            return ("pow", base, k)
        return base

    def atom(self):
        tok = self.next()
        if tok == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.startswith("z"):
            idx = int(tok[1:])
            if not 1 <= idx <= self.arity:
                raise BadIndex(f"variable z{idx} outside 1..{self.arity}")
            return ("var", idx)
        if tok.isdigit():
            p = int(tok)
            if self.peek() == "/":
                self.next()
                q = self.next()
                if not q.isdigit() or int(q) == 0:
                    raise ParseError(f"bad rational denominator {q!r}")
                return ("rat", Fraction(p, int(q)))
            return ("rat", Fraction(p))
        raise ParseError(f"unexpected token {tok!r}")


def _as_difference(node):
    """Return (i, j) if node is z_i - z_j with i != j, else None."""
    if node[0] == "sub" and node[1][0] == "var" and node[2][0] == "var":
        i, j = node[1][1], node[2][1]
        if i != j:
            return (i, j)
    return None


def parse(text: str, arity: int) -> RawExpr:
    """Parse expression text over z_1..z_arity into a RawExpr."""
    if arity < 0:
        raise BadIndex("arity must be >= 0")
    return RawExpr(arity, _Parser(_tokenize(text), arity).parse())


def eval_raw(expr: RawExpr, points) -> Fraction:
    """Evaluate the raw tree directly (independent of canonicalization)."""
    points = [Fraction(p) for p in points]
    if len(points) != expr.arity:
        raise ArityMismatch(f"need {expr.arity} points, got {len(points)}")
    _check_distinct(points)

    def ev(node):
        tag = node[0]
        if tag == "rat":
            return node[1]
        if tag == "var":
            return points[node[1] - 1]
        if tag == "neg":
            return -ev(node[1])
        if tag == "add":
            return ev(node[1]) + ev(node[2])
        if tag == "sub":
            return ev(node[1]) - ev(node[2])
        if tag == "mul":
            return ev(node[1]) * ev(node[2])
        if tag == "pow":
            base = ev(node[1])
            k = node[2]
            if k < 0 and base == 0:
                raise CoincidentPoints("pole hit during evaluation")
            return base ** k
        raise AssertionError(node)

    return ev(expr.tree)


def _check_distinct(points):
    if len(set(points)) != len(points):
        raise CoincidentPoints(f"points must be pairwise distinct: {points}")


# ---------------------------------------------------------------------------
# Generalized terms and the canonical reduction
# ---------------------------------------------------------------------------
# A GTerm is (coeff, zpows, dpows): zpows is a list of nonnegative pure
# exponents, dpows maps oriented pairs (hi, lo) with hi > lo to negative
# exponents of (z_hi - z_lo).

def _gterm_mul(a, b, n):
    ca, za, da = a
    cb, zb, db = b
    dp = dict(da)
    for pair, k in db.items():
        s = dp.get(pair, 0) + k
        if s:
            dp[pair] = s
        else:
            del dp[pair]
    return (ca * cb, [x + y for x, y in zip(za, zb)], dp)


def _expand(expr: RawExpr) -> List[tuple]:
    """Distribute a RawExpr into a list of GTerms."""
    n = expr.arity

    def const(c):
        return [(Fraction(c), [0] * n, {})]

    def go(node):
        tag = node[0]
        if tag == "rat":
            return const(node[1])
        if tag == "var":
            z = [0] * n
            z[node[1] - 1] = 1
            return [(Fraction(1), z, {})]
        if tag == "neg":
            return [(-c, z, d) for (c, z, d) in go(node[1])]
        if tag == "add" or tag == "sub":
            lhs = go(node[1])
            rhs = go(node[2])
            if tag == "sub":
                rhs = [(-c, z, d) for (c, z, d) in rhs]
            return lhs + rhs
        if tag == "mul":
            out = []
            rhs = go(node[2])
            for a in go(node[1]):
                for b in rhs:
                    out.append(_gterm_mul(a, b, n))
            return out
        if tag == "pow":
            k = node[2]
            if k < 0:
                diff = _as_difference(node[1])
                if diff is None:
                    raise IllegalPole(
                        "negative power allowed only on a difference z_i - z_j"
                    )
                i, j = diff
                hi, lo = (i, j) if i > j else (j, i)
                sign = Fraction(1) if i > j else Fraction(-1) ** (-k)
                return [(sign, [0] * n, {(hi, lo): k})]
            out = const(1)
            for _ in range(k):
                nxt = []
                base = go(node[1])
                for a in out:
                    for b in base:
                        nxt.append(_gterm_mul(a, b, n))
                out = nxt
            return out
        raise AssertionError(node)

    return go(expr.tree)


def _reduce(gterms: Iterable[tuple], n: int) -> Dict[Monomial, Fraction]:
    """Rewrite GTerms with R1/R2 until each variable carries one factor."""
    out: Dict[Monomial, Fraction] = {}
    stack = [(c, list(z), dict(d)) for (c, z, d) in gterms]
    while stack:
        coeff, zp, dp = stack.pop()
        if coeff == 0:
            continue
        v = 0
        vbases: List[int] = []
        for m in range(n, 0, -1):
            bases = sorted(lo for (hi, lo) in dp if hi == m)
            if bases and (zp[m - 1] > 0 or len(bases) >= 2):
                v, vbases = m, bases
                break
        if v == 0:
            factors = []
            for m in range(1, n + 1):
                bases = [lo for (hi, lo) in dp if hi == m]
                if bases:
                    factors.append(("d", bases[0], dp[(m, bases[0])]))
                else:
                    factors.append(("p", zp[m - 1]))
            mono = tuple(factors)
            s = out.get(mono, Fraction(0)) + coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
            continue
        if zp[v - 1] > 0:
            # R2 against the smallest base
            j0 = vbases[0]
            k = dp[(v, j0)]
            z1 = list(zp)
            z1[v - 1] -= 1
            d1 = dict(dp)
            if k + 1:
                d1[(v, j0)] = k + 1
            else:
                del d1[(v, j0)]
            stack.append((coeff, z1, d1))
            z2 = list(zp)
            z2[v - 1] -= 1
            z2[j0 - 1] += 1
            stack.append((coeff, z2, dict(dp)))
        else:
            # R1 on the two smallest bases; multiplier (z_j0-z_j1)^-1
            j0, j1 = vbases[0], vbases[1]
            for keep, drop, sign in (((v, j0), (v, j1), -1), ((v, j1), (v, j0), 1)):
                d1 = dict(dp)
                if d1[drop] + 1:
                    d1[drop] += 1
                else:
                    del d1[drop]
                d1[(j1, j0)] = d1.get((j1, j0), 0) - 1
                stack.append((coeff * sign, list(zp), d1))
    return out


# ---------------------------------------------------------------------------
# Monomial helpers
# ---------------------------------------------------------------------------

def mono_grading(mono: Monomial) -> int:
    """Grading = -(scaling degree) of the basis monomial."""
    g = 0
    for f in mono:
        if f[0] == "p":
            g -= f[1]
        else:
            g -= f[2]
    return g


def mono_pole_total(mono: Monomial) -> int:
    return sum(-f[2] for f in mono if f[0] == "d")


def mono_pole_pair(mono: Monomial, i: int, j: int) -> int:
    """Pole depth of the single monomial along z_i = z_j."""
    a, b = min(i, j), max(i, j)
    for m, f in enumerate(mono, start=1):
        if f[0] == "d" and m == b and f[1] == a:
            return -f[2]
    return 0


def mono_level_in_subset(mono: Monomial, subset) -> int:
    """Total pole depth among the chosen variables (exact for monomials)."""
    s = set(subset)
    total = 0
    for m, f in enumerate(mono, start=1):
        if f[0] == "d" and m in s and f[1] in s:
            total += -f[2]
    return total


def _factor_key(f: Factor):
    return (0, f[1], f[2]) if f[0] == "d" else (1, f[1])


def mono_sort_key(mono: Monomial):
    return tuple(_factor_key(f) for f in reversed(mono))


def _mono_str(mono: Monomial, prefix: str) -> str:
    parts = []
    for m, f in enumerate(mono, start=1):
        if f[0] == "p":
            if f[1] == 1:
                parts.append(f"{prefix}{m}")
            elif f[1] > 1:
                parts.append(f"{prefix}{m}^{f[1]}")
        else:
            parts.append(f"({prefix}{m}-{prefix}{f[1]})^{f[2]}")
    return " * ".join(parts)


# ---------------------------------------------------------------------------
# LocalFn
# ---------------------------------------------------------------------------

class LocalFn:
    """A local function in canonical form: arity plus basis-monomial terms.

    Instances are immutable by convention; all operations return new values.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Dict[Monomial, Fraction]):
        self.arity = arity
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LocalFn":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, c) -> "LocalFn":
        c = Fraction(c)
        if c == 0:
            return cls.zero(arity)
        return cls(arity, {tuple(("p", 0) for _ in range(arity)): c})

    @classmethod
    def one(cls, arity: int) -> "LocalFn":
        return cls.const(arity, 1)

    @classmethod
    def from_monomial(cls, arity: int, mono: Monomial, coeff=1) -> "LocalFn":
        return cls(arity, {mono: Fraction(coeff)})

    @classmethod
    def from_text(cls, text: str, arity: int) -> "LocalFn":
        return canonicalize(parse(text, arity))

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        return (self.arity, tuple(sorted(self.terms.items(), key=lambda t: mono_sort_key(t[0]))))

    def __eq__(self, other):
        return isinstance(other, LocalFn) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: mono_sort_key(t[0]))

    def __repr__(self):
        return f"LocalFn({self.format()!r})"

    def format(self, prefix: str = "z") -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            body = _mono_str(mono, prefix)
            if not body:
                piece = str(coeff)
            elif coeff == 1:
                piece = body
            else:
                piece = f"{coeff} * {body}"
            chunks.append(piece)
        return " + ".join(chunks)

    def __str__(self):
        return self.format()

    # -- arithmetic ----------------------------------------------------------

    def _require_same_arity(self, other: "LocalFn"):
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other: "LocalFn") -> "LocalFn":
        self._require_same_arity(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, Fraction(0)) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return LocalFn(self.arity, terms)

    def __neg__(self):
        return LocalFn(self.arity, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LocalFn":
        c = Fraction(c)
        if c == 0:
            return LocalFn.zero(self.arity)
        return LocalFn(self.arity, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_arity(other)
        gterms = []
        for m1, c1 in self.terms.items():
            g1 = _mono_to_gterm(m1, c1, self.arity)
            for m2, c2 in other.terms.items():
                gterms.append(_gterm_mul(g1, _mono_to_gterm(m2, c2, self.arity), self.arity))
        return LocalFn(self.arity, _reduce(gterms, self.arity))

    def primitive(self):
        """Split off the leading coefficient: self == c * f with f monic."""
        if not self.terms:
            return Fraction(0), self
        lead = self.sorted_terms()[0][1]
        return lead, self.scale(Fraction(1) / lead)

    # -- queries ---------------------------------------------------------------

    def evaluate(self, points) -> Fraction:
        points = [Fraction(p) for p in points]
        if len(points) != self.arity:
            raise ArityMismatch(f"need {self.arity} points, got {len(points)}")
        _check_distinct(points)
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for m, f in enumerate(mono, start=1):
                if f[0] == "p":
                    val *= points[m - 1] ** f[1]
                else:
                    val *= (points[m - 1] - points[f[1] - 1]) ** f[2]
            total += val
        return total

    def permute(self, sigma) -> "LocalFn":
        """Right action: returns g with g(z_1..z_n) = self(z_sigma(1)..z_sigma(n))."""
        n = self.arity
        sigma = list(sigma)
        if sorted(sigma) != list(range(1, n + 1)):
            raise BadPermutation(f"not a permutation of 1..{n}: {sigma}")
        gterms = []
        for mono, coeff in self.terms.items():
            c = coeff
            zp = [0] * n
            dp: Dict[Tuple[int, int], int] = {}
            for m, f in enumerate(mono, start=1):
                if f[0] == "p":
                    zp[sigma[m - 1] - 1] += f[1]
                else:
                    a, b = sigma[m - 1], sigma[f[1] - 1]
                    hi, lo = (a, b) if a > b else (b, a)
                    if a < b:
                        c *= Fraction(-1) ** (-f[2])
                    dp[(hi, lo)] = dp.get((hi, lo), 0) + f[2]
            gterms.append((c, zp, dp))
        return LocalFn(n, _reduce(gterms, n))

    def grade_components(self) -> Dict[int, "LocalFn"]:
        comps: Dict[int, Dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            comps.setdefault(mono_grading(mono), {})[mono] = coeff
        return {g: LocalFn(self.arity, t) for g, t in sorted(comps.items())}

    def grading(self) -> int:
        """Grading of a homogeneous function (zero counts as any grading)."""
        comps = self.grade_components()
        if len(comps) > 1:
            raise NotHomogeneous(f"gradings {sorted(comps)}")
        return next(iter(comps), 0)

    def is_homogeneous(self) -> bool:
        return len(self.grade_components()) <= 1

    def pole_order(self, i: int, j: int) -> int:
        if i == j or not (1 <= i <= self.arity) or not (1 <= j <= self.arity):
            raise BadSubset(f"need distinct indices in 1..{self.arity}: {i}, {j}")
        return self.collision_level((i, j))

    def collision_level(self, subset) -> int:
        """Least N with (cluster differences)^N * self regular as the chosen
        variables collide together; the filtration level of the subset."""
        s = sorted(set(subset))
        if not s or s[0] < 1 or s[-1] > self.arity:
            raise BadSubset(f"subset must be nonempty within 1..{self.arity}: {subset}")
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            return mono_level_in_subset(next(iter(self.terms)), s)
        return _collision_level_exact(self, s)

    # -- serialization -----------------------------------------------------------

    def to_obj(self):
        terms = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for f in mono:
                if f[0] == "p":
                    factors.append({"kind": "pure", "exp": f[1]})
                else:
                    factors.append({"kind": "diff", "base": f[1], "exp": f[2]})
            terms.append({"coeff": str(coeff), "factors": factors})
        return {"arity": self.arity, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_obj(cls, obj) -> "LocalFn":
        arity = obj["arity"]
        terms: Dict[Monomial, Fraction] = {}
        for t in obj["terms"]:
            factors = []
            for m, f in enumerate(t["factors"], start=1):
                if f["kind"] == "pure":
                    if f["exp"] < 0:
                        raise IllegalPole("pure factor with negative exponent")
                    factors.append(("p", f["exp"]))
                elif f["kind"] == "diff":
                    if not 1 <= f["base"] < m:
                        raise BadIndex(f"diff base {f['base']} not below variable {m}")
                    if f["exp"] >= 0:
                        raise IllegalPole("diff factor must have negative exponent")
                    factors.append(("d", f["base"], f["exp"]))
                else:
                    raise ParseError(f"unknown factor kind {f['kind']!r}")
            if len(factors) != arity:
                raise ArityMismatch("factor list length != arity")
            mono = tuple(factors)
            terms[mono] = terms.get(mono, Fraction(0)) + Fraction(t["coeff"])
        return cls(arity, terms)

    @classmethod
    def from_json(cls, text: str) -> "LocalFn":
        return cls.from_obj(json.loads(text))


def _mono_to_gterm(mono: Monomial, coeff: Fraction, n: int):
    zp = [0] * n
    dp: Dict[Tuple[int, int], int] = {}
    for m, f in enumerate(mono, start=1):
        if f[0] == "p":
            zp[m - 1] = f[1]
        else:
            dp[(m, f[1])] = f[2]
    return (coeff, zp, dp)


def _collision_level_exact(f: LocalFn, subset: List[int]) -> int:
    """Clear all poles, substitute z_i -> t + eps*u_i on the subset, and read
    the level off the eps-valuation of the numerator polynomial.

    Cancellations between different monomials are detected exactly because
    the numerator is a genuine polynomial.
    """
    n = f.arity
    in_s = set(subset)
    dmax: Dict[Tuple[int, int], int] = {}
    for mono in f.terms:
        for m, fac in enumerate(mono, start=1):
            if fac[0] == "d":
                pair = (m, fac[1])
                dmax[pair] = max(dmax.get(pair, 0), -fac[2])
    d_in = sum(d for (hi, lo), d in dmax.items() if hi in in_s and lo in in_s)
    # variable layout: z_1..z_n, t, eps, u_i for i in subset
    width = n + 2 + len(subset)
    t_ix, e_ix = n, n + 1
    u_ix = {v: n + 2 + r for r, v in enumerate(subset)}

    # t + eps*u_i carries the quadratic monomial eps*u_i, so build it directly.
    def rep_full(v: int) -> polyq.Poly:
        if v not in in_s:
            return polyq.linear(width, {v - 1: 1})
        e = [0] * width
        e[e_ix] = 1
        e[u_ix[v]] = 1
        return polyq.add(polyq.linear(width, {t_ix: 1}), {tuple(e): Fraction(1)})

    numerator = polyq.zero()
    for mono, coeff in f.terms.items():
        term = polyq.const(width, coeff)
        dcur: Dict[Tuple[int, int], int] = {}
        for m, fac in enumerate(mono, start=1):
            if fac[0] == "p":
                if fac[1]:
                    term = polyq.mul(term, polyq.power(rep_full(m), fac[1], width))
            else:
                dcur[(m, fac[1])] = -fac[2]
        for pair, d in dmax.items():
            rem = d - dcur.get(pair, 0)
            if rem:
                hi, lo = pair
                diff = polyq.add(rep_full(hi), polyq.scale(rep_full(lo), -1))
                term = polyq.mul(term, polyq.power(diff, rem, width))
        numerator = polyq.add(numerator, term)
    val = polyq.min_exponent(numerator, e_ix)
    if val is None:
        return 0
    return max(0, d_in - val)


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def canonicalize(expr: RawExpr) -> LocalFn:
    """Unique basis expansion of a raw expression (idempotent on its output)."""
    return LocalFn(expr.arity, _reduce(_expand(expr), expr.arity))


def basis_monomials(n: int, grading: int, pole_budget: int) -> List[Monomial]:
    """All basis monomials of the given arity and grading with total pole
    depth at most pole_budget, in canonical order."""
    if pole_budget < 0:
        raise BadSubset("pole budget must be >= 0")
    if pole_budget < grading:
        return []
    pure_cap = pole_budget - grading
    out: List[Monomial] = []

    def rec(m: int, pole: int, pure: int, acc: List[Factor]):
        if m > n:
            if pole - pure == grading:
                out.append(tuple(acc))
            return
        for l in range(0, pure_cap - pure + 1):
            acc.append(("p", l))
            rec(m + 1, pole, pure + l, acc)
            acc.pop()
        for i in range(1, m):
            for k in range(1, pole_budget - pole + 1):
                acc.append(("d", i, -k))
                rec(m + 1, pole + k, pure, acc)
                acc.pop()

    rec(1, 0, 0, [])
    out.sort(key=mono_sort_key)
    return out
