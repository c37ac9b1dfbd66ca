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
    LocalFn   = arity + {Monomial: coefficient}   (no zero coefficients)

A coefficient is an int where it is integral and a Fraction otherwise.
The JSON of a function (to_json) is written as text by _fn_json, equal to
json.dumps of its object with sorted keys, each distinct factor formatted
once per output; to_obj reads that text back.

The grading used throughout is the negative of the scaling degree, so
(z_2 - z_1)^-2 is homogeneous of grading 2 and z_1 of grading -1.

Canonicalization runs partial fractions in the highest variable first.
A term whose highest unreduced variable x = z_v carries a pure power and a
pole, or two poles, has x eliminated in one closed-form step (_eliminate):
two poles (x-A)^-a (x-B)^-b split into poles at A and at B, each
coefficient a signed binomial times a power of (B-A), until one pole is
left; then x^p (x-A)^-a splits into its pole part and its polynomial part
by the binomial expansion of x^p about A.  Every new factor sits on lower
variables, so the elimination runs down the variables and terminates;
uniqueness of the result is what the evaluation-based property tests
certify.

The cluster expansion (_cluster_layout, _cluster_setup, _cluster_terms) is
the package's one expansion engine.  It splits any sorted subset S of a
basis monomial's variables off into a cluster around a new point, in place,
and enumerates the terms of a window of outer gradings.  cooperad's
insertions collect its terms as tensors.  The collision level of S, the
cluster filtration, is the top inner grading whose terms, summed over the
monomials, survive one _reduce.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, List, NamedTuple, Tuple

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
    SchemaError,
)
from .numutil import SparseSum, _exact, add_into, gbinom

Factor = Tuple
Monomial = Tuple[Factor, ...]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class RawExpr(NamedTuple):
    """Parsed expression tree plus the declared arity.

    ``tree`` uses nested tuples: ("rat", Fraction), ("var", i),
    ("add"|"sub"|"mul", lhs, rhs), ("neg", node), ("pow", base, k).
    """

    arity: int
    tree: tuple


_MAX_NESTING = 100
_TOKEN = re.compile(r"\s*(z\d+|\d+|\*\*|[-+*/^()])")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].isspace():
                break  # trailing whitespace, as leading whitespace, is no token
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
    difference of two distinct variables (parentheses ignored).  Parentheses
    nest at most _MAX_NESTING deep, so no input exhausts the stack.
    """

    def __init__(self, tokens, arity):
        self.toks = tokens
        self.i = 0
        self.arity = arity
        self.depth = 0

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
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}")
            node = self.expr()
            self.expect(")")
            self.depth -= 1
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


def _chain(node):
    """The operands of the chain of +, - or * that node heads: its leftmost
    operand, then (op, operand) for the others in order.  The walk follows
    the left spine, so a long sum or product costs no recursion depth."""
    kinds = ("mul",) if node[0] == "mul" else ("add", "sub")
    rights = []
    while node[0] in kinds:
        rights.append((node[0], node[2]))
        node = node[1]
    return node, reversed(rights)


# ---------------------------------------------------------------------------
# Generalized terms and the canonical reduction
# ---------------------------------------------------------------------------
# A GTerm is (coeff, zpows, dpows): zpows is a list of nonnegative pure
# exponents, dpows maps oriented pairs (hi, lo) with hi > lo to negative
# exponents of (z_hi - z_lo).

def _gterm_mul(a, b):
    ca, za, da = a
    cb, zb, db = b
    dp = add_into(dict(da), db)
    return (ca * cb, [x + y for x, y in zip(za, zb)], dp)


def _gterm_list_mul(lhs, rhs):
    """Every product of a GTerm of lhs with one of rhs.  When both are sums,
    equal GTerms (same pure exponents and poles) merge as they are formed,
    so a power of a sum grows with its distinct terms, not with the number
    of factor choices."""
    if len(lhs) == 1 or len(rhs) == 1:
        out = []
        for a in lhs:
            for b in rhs:
                out.append(_gterm_mul(a, b))
        return out
    merged = {}
    for a in lhs:
        for b in rhs:
            c, z, d = _gterm_mul(a, b)
            key = (tuple(z), tuple(sorted(d.items())))
            old = merged.get(key)
            merged[key] = (c, z, d) if old is None else (old[0] + c, z, d)
    return [t for t in merged.values() if t[0]]


def _expand(expr: RawExpr) -> List[tuple]:
    """Distribute a RawExpr into a list of GTerms.

    Chains are walked by _chain, so a long sum or product does not
    recurse, and a power expands its base once."""
    return _expand_node(expr.tree, expr.arity)


def _expand_node(node, n: int) -> List[tuple]:
    """The GTerms of one node of a RawExpr tree over n variables."""
    tag = node[0]
    if tag == "rat":
        return [(_exact(node[1]), [0] * n, {})]
    if tag == "var":
        z = [0] * n
        z[node[1] - 1] = 1
        return [(1, z, {})]
    if tag == "neg":
        return [(-c, z, d) for (c, z, d) in _expand_node(node[1], n)]
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
            sign = -1 if i < j and k & 1 else 1
            return [(sign, [0] * n, {(hi, lo): k})]
        if k == 0:
            return [(1, [0] * n, {})]
        out = base = _expand_node(node[1], n)
        for _ in range(k - 1):
            out = _gterm_list_mul(out, base)
        return out
    if tag not in ("add", "sub", "mul"):
        raise AssertionError(node)
    first, rest = _chain(node)
    out = _expand_node(first, n)
    for op, rhs in rest:
        rhs = _expand_node(rhs, n)
        if op == "mul":
            out = _gterm_list_mul(out, rhs)
        elif op == "add":
            out.extend(rhs)
        else:
            out.extend((-c, z, d) for (c, z, d) in rhs)
    return out


def _reduce(gterms: Iterable[tuple], n: int) -> Dict[Monomial, int | Fraction]:
    """Expand GTerms in the basis: each term left with a variable that
    carries a pure power and a pole, or two poles, has the highest such
    variable eliminated in closed form (_eliminate), until each variable
    carries one factor.

    The closed forms multiply by binomials and signs only, so GTerms with
    int coefficients reduce to int coefficients."""
    out: Dict[Monomial, int | Fraction] = {}
    stack = list(gterms)
    while stack:
        coeff, zp, dp = stack.pop()
        if coeff == 0:
            continue
        # group the poles by owner, and find the highest owner with a pure
        # power and a pole, or two poles, in the same pass
        owners: Dict[int, List[int]] = {}
        v = 0
        for hi, lo in dp:
            bases = owners.get(hi)
            if bases is None:
                owners[hi] = [lo]
                if hi > v and zp[hi - 1] > 0:
                    v = hi
            else:
                bases.append(lo)
                if hi > v:
                    v = hi
        if v:
            _eliminate(coeff, zp, dp, v, sorted(owners[v]), stack)
            continue
        # every variable now owns at most one base
        factors = []
        for m in range(1, n + 1):
            bases = owners.get(m)
            if bases:
                factors.append(("d", bases[0], dp[(m, bases[0])]))
            else:
                factors.append(("p", zp[m - 1]))
        mono = tuple(factors)
        old = out.get(mono)
        s = coeff if old is None else old + coeff
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


def _eliminate(coeff, zp, dp, v: int, bases: List[int], out: list) -> None:
    """Append to out GTerms that sum to the GTerm (coeff, zp, dp) and leave
    variable v, whose sorted bases are given, with one factor each: one
    pole (z_v - z_j)^-k or one pure power of z_v.  Every new factor sits on
    lower variables.  With x = z_v:

    Two bases, A = z_j0 and B = z_j1 with j0 < j1, against each other:

        (x-A)^-a (x-B)^-b = sum_{k<a} (-1)^b C(b+k-1, k) (B-A)^(-b-k) (x-A)^-(a-k)
                          + sum_{k<b} (-1)^k C(a+k-1, k) (B-A)^(-a-k) (x-B)^-(b-k),

    applied to the two smallest bases of a term until one is left.  Then a
    power against that base, A = z_j:

        x^p (x-A)^-a = sum_{i<a, i<=p} C(p, i) A^(p-i) (x-A)^(i-a)
                     + sum_{s=0..p-a} C(p-s-1, a-1) A^(p-a-s) x^s.

    The first is the expansion of either pole about the other's point, the
    second the binomial expansion of x^p about A."""
    rest = {pair: k for pair, k in dp.items() if pair[0] != v}
    j0 = bases[0]
    poles = [(coeff, rest, j0, -dp[(v, j0)])]
    for j1 in bases[1:]:
        b = -dp[(v, j1)]
        split = []
        for c, d, j, a in poles:
            pair = (j1, j)
            e = d.get(pair, 0)
            cb = -c if b & 1 else c
            for k in range(a):
                d1 = d.copy()
                d1[pair] = e - b - k
                split.append((cb * comb(b + k - 1, k), d1, j, a - k))
            for k in range(b):
                d1 = d.copy()
                d1[pair] = e - a - k
                ck = c * comb(a + k - 1, k)
                split.append((-ck if k & 1 else ck, d1, j1, b - k))
        poles = split
    p = zp[v - 1]
    if not p:
        # v has two bases or more, so every d is a copy made above
        for c, d, j, a in poles:
            d[(v, j)] = -a
            out.append((c, zp, d))
        return
    for c, d, j, a in poles:
        for i in range(min(a, p + 1)):
            z1 = zp.copy()
            z1[v - 1] = 0
            z1[j - 1] += p - i
            d1 = d.copy()
            d1[(v, j)] = i - a
            out.append((c * comb(p, i), z1, d1))
        for s in range(p - a + 1):
            z1 = zp.copy()
            z1[v - 1] = s
            z1[j - 1] += p - a - s
            out.append((c * comb(p - s - 1, a - 1), z1, d))


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


def mono_level_in_subset(mono: Monomial, subset) -> int:
    """Total pole depth among the chosen variables (exact for monomials)."""
    s = set(subset)
    total = 0
    for m in s:
        f = mono[m - 1]
        if f[0] == "d" and f[1] in s:
            total -= f[2]
    return total


def mono_sort_key(mono: Monomial):
    """Print order of monomials: variables from the last, a difference
    factor before a pure power, then by base and exponent."""
    return tuple([(0, f[1], f[2]) if f[0] == "d" else (1, f[1]) for f in reversed(mono)])


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


def _terms_text(items, prefix: str) -> str:
    """Text of (monomial, coeff) pairs given in print order, as
    LocalFn.format prints them."""
    chunks = []
    for mono, coeff in items:
        body = _mono_str(mono, prefix)
        if not body:
            chunks.append(str(coeff))
        elif coeff == 1:
            chunks.append(body)
        else:
            chunks.append(f"{coeff} * {body}")
    return " + ".join(chunks) or "0"


def _fn_json(arity: int, items, factors: dict) -> str:
    """JSON text of a function of the given arity with the (monomial,
    coeff) pairs items, in print order: json.dumps of its object with
    sorted keys, byte for byte.  factors maps each factor already written
    in this output to its text, so each distinct factor is formatted once."""
    terms = []
    for mono, coeff in items:
        parts = []
        for f in mono:
            text = factors.get(f)
            if text is None:
                if f[0] == "p":
                    text = factors[f] = f'{{"exp": {f[1]}, "kind": "pure"}}'
                else:
                    text = factors[f] = f'{{"base": {f[1]}, "exp": {f[2]}, "kind": "diff"}}'
            parts.append(text)
        terms.append(f'{{"coeff": "{coeff}", "factors": [{", ".join(parts)}]}}')
    return f'{{"arity": {arity}, "terms": [{", ".join(terms)}]}}'


def _divided(items, lead):
    """The (monomial, coeff / lead) pairs of items.  A Fraction is formed
    only for a quotient that is not integral."""
    if lead == 1:
        return items
    if lead == -1:
        return [(m, -c) for m, c in items]
    out = []
    for m, c in items:
        q, r = divmod(c, lead)
        out.append((m, Fraction(c, lead) if r else q))
    return out


# ---------------------------------------------------------------------------
# LocalFn
# ---------------------------------------------------------------------------

class LocalFn(SparseSum):
    """A local function in canonical form: arity plus basis-monomial terms."""

    __slots__ = ("arity",)
    _space_name = "arity"
    _sort_key = staticmethod(mono_sort_key)

    def __init__(self, arity: int, terms: Dict[Monomial, int | Fraction]):
        self.arity = arity
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @property
    def _space(self):
        return self.arity

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LocalFn":
        return cls(arity, {})

    @classmethod
    def const(cls, arity: int, c) -> "LocalFn":
        c = _exact(c)
        if c == 0:
            return cls.zero(arity)
        return cls(arity, {tuple(("p", 0) for _ in range(arity)): c})

    @classmethod
    def one(cls, arity: int) -> "LocalFn":
        return cls.const(arity, 1)

    @classmethod
    def from_monomial(cls, arity: int, mono: Monomial, coeff=1) -> "LocalFn":
        return cls(arity, {mono: _exact(coeff)})

    @classmethod
    def from_text(cls, text: str, arity: int) -> "LocalFn":
        return canonicalize(parse(text, arity))

    # -- printing -------------------------------------------------------------

    def __repr__(self):
        return f"LocalFn({self.format()!r})"

    def format(self, prefix: str = "z") -> str:
        return _terms_text(self.sorted_terms(), prefix)

    def __str__(self):
        return self.format()

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_space(other)
        gterms = []
        for m1, c1 in self.terms.items():
            g1 = _mono_to_gterm(m1, c1, self.arity)
            for m2, c2 in other.terms.items():
                gterms.append(_gterm_mul(g1, _mono_to_gterm(m2, c2, self.arity)))
        return LocalFn(self.arity, _reduce(gterms, self.arity))

    def primitive(self):
        """Split off the leading coefficient: self == c * f with f monic."""
        if not self.terms:
            return 0, self
        lead = self.terms[min(self.terms, key=mono_sort_key)]
        if lead == 1:
            return lead, self
        return lead, LocalFn(self.arity, dict(_divided(self.terms.items(), lead)))

    # -- queries ---------------------------------------------------------------

    def evaluate(self, points) -> Fraction:
        points = [Fraction(p) for p in points]
        if len(points) != self.arity:
            raise ArityMismatch(f"need {self.arity} points, got {len(points)}")
        if len(set(points)) != len(points):
            raise CoincidentPoints(f"points must be pairwise distinct: {points}")
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
        gterms = [_permute_gterm(mono, sigma, coeff) for mono, coeff in self.terms.items()]
        return LocalFn(n, _reduce(gterms, n))

    def grade_components(self) -> Dict[int, "LocalFn"]:
        comps: Dict[int, Dict[Monomial, int | Fraction]] = {}
        for mono, coeff in self.terms.items():
            comps.setdefault(mono_grading(mono), {})[mono] = coeff
        return {g: LocalFn(self.arity, t) for g, t in sorted(comps.items())}

    def grading(self) -> int:
        """Grading of a homogeneous function (zero counts as any grading)."""
        gradings = {mono_grading(mono) for mono in self.terms}
        if len(gradings) > 1:
            raise NotHomogeneous(f"gradings {sorted(gradings)}")
        return next(iter(gradings), 0)

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
        return _collision_level(self, s, 0)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        """The JSON text of to_obj(), with sorted keys."""
        return _fn_json(self.arity, self.sorted_terms(), {})

    def to_obj(self):
        return json.loads(self.to_json())

    @classmethod
    def from_obj(cls, obj) -> "LocalFn":
        arity = obj["arity"]
        terms: Dict[Monomial, int | Fraction] = {}
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
            terms[mono] = terms.get(mono, 0) + _exact(t["coeff"])
        return cls(arity, terms)


def _mono_to_gterm(mono: Monomial, coeff, n: int):
    zp = [0] * n
    dp: Dict[Tuple[int, int], int] = {}
    for m, f in enumerate(mono, start=1):
        if f[0] == "p":
            zp[m - 1] = f[1]
        else:
            dp[(m, f[1])] = f[2]
    return (coeff, zp, dp)


def _permute_gterm(mono: Monomial, sigma, coeff=1):
    """GTerm of coeff * mono(z_sigma(1), ..., z_sigma(n)) for a permutation
    sigma of 1..n; each diff factor whose order flips contributes the int
    sign (-1)^k."""
    zp = [0] * len(mono)
    dp: Dict[Tuple[int, int], int] = {}
    sign = 1
    for m, f in enumerate(mono, start=1):
        if f[0] == "p":
            zp[sigma[m - 1] - 1] += f[1]
        else:
            hi, lo = sigma[m - 1], sigma[f[1] - 1]
            if hi < lo:
                hi, lo = lo, hi
                if f[2] % 2:
                    sign = -sign
            dp[(hi, lo)] = dp.get((hi, lo), 0) + f[2]
    return (coeff * sign, zp, dp)


def _cluster_layout(n: int, subset: List[int]):
    """Layout of the cluster expansion that splits the sorted subset S of n
    variables off into a cluster around a new point t, in place: (slot,
    oa).  One numbering covers both sides.  The outer variables, those
    outside S in order, take slots 1..oa, with t at slot pos = min S, after
    every outside variable below min S.  Inner variable r, t_r = z_(S[r]) - t,
    takes slot oa + r.  slot maps each variable to its slot, and t, as 0,
    to pos."""
    in_s = set(subset)
    outside = [v for v in range(1, n + 1) if v not in in_s]
    pos = subset[0]
    order = outside[:pos - 1] + [0] + outside[pos - 1:] + list(subset)
    return dict(zip(order, range(1, n + 2))), n - len(subset) + 1


def _cluster_setup(mono: Monomial, layout):
    """Per-monomial half of the cluster expansion of a basis monomial, on
    the _cluster_layout of its subset S.  Each factor becomes

        z_v^l,          v in S      ->  sum_s C(l,s) t^(l-s) t_r^s
        (z_v - z_i)^k,  v, i in S   ->  (t_r - t_ri)^k
        (z_v - z_i)^k,  v in S      ->  sum_s C(k,s) t_r^s (t - z_i)^(k-s)
        (z_v - z_i)^k,  i in S      ->  sum_s C(k,s) (-t_ri)^s (z_v - t)^(k-s)

    and the other factors stay on the outer side.  When z_i sits after t,
    (t - z_i) is oriented as (z_i - t), with the sign (-1)^(k-s); z_v in
    the last rule always sits after t, since v > i >= min S.  A series
    term of order s has outer grading s - l or s - k, so the outer grading
    of a term is base (every series at order 0) plus its total order.

    Returns (expansion, term, inner): expansion = (base, index of t in the
    pure powers, series factors (index of t_r, exponent, whether the sign
    alternates in s, oriented outer pole or None for a power of t)), term
    the fixed part (int sign, pure powers, outer poles) of every term, and
    inner the fixed inner poles, all in slot numbering.  _cluster_terms
    enumerates the terms.
    """
    slot, oa = layout
    pos = slot[0]
    sign, base = 1, 0
    zp = [0] * len(slot)
    dp: Dict[Tuple[int, int], int] = {}
    inner: Dict[Tuple[int, int], int] = {}
    series = []
    for v, fac in enumerate(mono, start=1):
        sv = slot[v]
        if fac[0] == "p":
            base -= fac[1]
            if sv <= oa:
                zp[sv - 1] = fac[1]
            elif fac[1]:
                series.append((sv - 1, fac[1], False, None))
            continue
        si, k = slot[fac[1]], fac[2]
        if si > oa:
            if sv > oa:
                inner[(sv, si)] = k
                continue
            series.append((si - 1, k, True, (sv, pos)))
        elif sv <= oa:
            dp[(sv, si)] = k
        elif si < pos:
            series.append((sv - 1, k, False, (pos, si)))
        else:
            sign *= (-1) ** (k % 2)
            series.append((sv - 1, k, True, (si, pos)))
        base -= k
    return (base, pos - 1, series), (sign, zp, dp), inner


def _cluster_terms(expansion, term, p_lo: int, p_hi: int, binom, out) -> None:
    """Enumerating half of the cluster expansion (_cluster_setup): append
    to out[p - p_lo] the GTerm of every term of outer grading p, for
    p_lo <= p <= p_hi.  Each GTerm is term times one order of every series
    factor.  binom(e, s) is the binomial coefficient C(e, s), taken from the
    caller's module so that a test can break it for one caller alone.  The
    enumeration prunes at the total order p_hi - base, so it costs as much
    as its highest grading."""
    base, tix, series = expansion
    if p_hi >= base:
        _cluster_rec((series, tix, p_lo - base, p_hi - base, binom, out, term[0]),
                     0, 0, 1, term[1], term[2])


def _cluster_rec(ctx, idx, order, mult, zp, dp):
    """The terms of _cluster_terms from series factor idx on, total order
    so far `order`; mult is an int, and term's coefficient joins once per
    leaf.  A module-level function with one context tuple costs less per
    call than a closure, which the filtration makes once per order."""
    series, tix, lo, hi, binom, out, coeff = ctx
    if idx == len(series):
        if order >= lo:
            out[order - lo].append((coeff * mult, zp, dp))
        return
    ix, e, alt, pair = series[idx]
    cap = hi - order
    if pair is None and e < cap:
        cap = e
    idx += 1
    for s in range(max(0, lo - order) if idx == len(series) else 0, cap + 1):
        c = binom(e, s)
        if alt and s & 1:
            c = -c
        zp1 = zp.copy()
        zp1[ix] += s
        if pair is None:
            zp1[tix] += e - s
            _cluster_rec(ctx, idx, order + s, mult * c, zp1, dp)
        else:
            dp1 = dp.copy()
            dp1[pair] = dp1.get(pair, 0) + e - s
            _cluster_rec(ctx, idx, order + s, mult * c, zp1, dp1)


def _cluster_gterms(mono: Monomial, layout, coeff=1):
    """(expansion, term) of _cluster_setup with the inner poles joined to
    the outer ones, so every enumerated GTerm is a whole term over the
    outer variables followed by the inner ones, reduced in one _reduce."""
    expansion, (sign, zp, dp), inner = _cluster_setup(mono, layout)
    dp.update(inner)
    return expansion, (coeff if sign > 0 else -coeff, zp, dp)


def _collision_level(f: LocalFn, subset: List[int], floor: int) -> int:
    """max(floor, collision level of f on the sorted subset S): the largest
    j > floor for which the insertion clustering S has a nonzero part of
    inner grading j.  Each order j gathers every monomial's terms of outer
    grading (its grading) - j from the cluster expansion, and one _reduce,
    the exact zero test, sees cancellations between monomials.  The scan
    runs down from the deepest monomial's pole depth inside S, which no
    inner grading exceeds."""
    depth = {mono: mono_level_in_subset(mono, subset) for mono in f.terms}
    top = max(depth.values(), default=0)
    if top <= floor:
        return floor
    if list(depth.values()).count(top) == 1:
        return top  # a lone deepest monomial cannot cancel
    layout = _cluster_layout(f.arity, subset)
    expansions = [(depth[mono], mono_grading(mono), *_cluster_gterms(mono, layout, c))
                  for mono, c in f.terms.items() if depth[mono] > floor]
    for j in range(top, floor, -1):
        gterms: List[tuple] = []
        for d, g, expansion, term in expansions:
            if d >= j:
                _cluster_terms(expansion, term, g - j, g - j, gbinom, [gterms])
        if _reduce(gterms, f.arity + 1):
            return j
    return floor


def _collision_level_exact(f: LocalFn, subset: List[int]) -> int:
    """Clear all poles, substitute z_i -> t + eps*u_i on the subset, and read
    the level off the eps-valuation of the numerator polynomial.

    Cancellations between different monomials are detected exactly because
    the numerator is a genuine polynomial.  Much slower than _collision_level;
    kept only as the independent route the tests compare it against.
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


class MonomialBasis:
    """The basis monomials of arity n and the given grading with total pole
    depth at most pole_budget, in canonical order, as a sequence that holds
    none of them.

    The monomials are the leaves of a search that runs from the last
    variable down and tries each variable's factors in mono_sort_key order
    (_choices), so depth-first order is mono_sort_key order.  Which
    branches of a node lead to a leaf, and how many leaves each holds,
    depends only on the node's variable and on the pole depth and pure
    degree used above it; _branches works it out once per such state.  len
    is the count at the root, and an index is found by walking down the
    search past the counts of earlier branches (unranking), both in time
    polynomial in n, where the list grows exponentially with n."""

    __slots__ = ("n", "grading", "pole_budget", "_memo")

    def __init__(self, n: int, grading: int, pole_budget: int):
        if pole_budget < 0:
            raise SchemaError("pole budget must be >= 0")
        self.n = n
        self.grading = grading
        self.pole_budget = pole_budget
        self._memo: Dict[Tuple[int, int, int], tuple] = {}

    def _choices(self, m: int, pole: int, pure: int):
        """Each factor variable m can take, in mono_sort_key order, once the
        variables above it used pole depth `pole` and pure degree `pure`,
        with the pole depth and pure degree used after taking it."""
        if m == 1:
            # variable 1 carries a pure power, and the grading fixes it; as
            # pole <= pole_budget, it never exceeds the pure degree left
            l = pole - pure - self.grading
            if l >= 0:
                yield ("p", l), pole, pure + l
            return
        room = self.pole_budget - pole
        for i in range(1, m):
            for k in range(room, 0, -1):
                yield ("d", i, -k), pole + k, pure
        for l in range(self.pole_budget - self.grading - pure + 1):
            yield ("p", l), pole, pure + l

    def _branches(self, m: int, pole: int, pure: int):
        """(leaves, branches) of the state with variables m..1 still to
        choose: every choice with a leaf below it, as (factor, pole, pure,
        leaves), in _choices order."""
        key = (m, pole, pure)
        got = self._memo.get(key)
        if got is None:
            if m == 0:
                # only arity 0 starts here: its one monomial has grading 0
                got = (int(self.grading == 0), ())
            else:
                total = 0
                branches = []
                for f, p, q in self._choices(m, pole, pure):
                    # every choice of variable 1 is a leaf
                    c = self._branches(m - 1, p, q)[0] if m > 1 else 1
                    if c:
                        total += c
                        branches.append((f, p, q, c))
                got = (total, branches)
            self._memo[key] = got
        return got

    def __len__(self) -> int:
        return self._branches(self.n, 0, 0)[0]

    def __getitem__(self, idx: int) -> Monomial:
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        acc: List[Factor] = []
        pole = pure = 0
        for m in range(self.n, 0, -1):
            for f, pole, pure, c in self._branches(m, pole, pure)[1]:
                if idx < c:
                    break
                idx -= c
            acc.append(f)
        return tuple(reversed(acc))


def basis_monomials(n: int, grading: int, pole_budget: int) -> List[Monomial]:
    """All basis monomials of the given arity and grading with total pole
    depth at most pole_budget, in canonical order: every leaf of
    MonomialBasis's search, depth first."""
    basis = MonomialBasis(n, grading, pole_budget)
    out: List[Monomial] = []
    if len(basis):
        _basis_leaves(basis, n, 0, 0, [], out)
    return out


def _basis_leaves(basis: MonomialBasis, m: int, pole: int, pure: int, acc, out) -> None:
    """Append to out every leaf of basis's search below the state (m, pole,
    pure), with the factors acc chosen above it."""
    if m == 0:
        out.append(tuple(reversed(acc)))
        return
    for f, p, q, _ in basis._branches(m, pole, pure)[1]:
        acc.append(f)
        _basis_leaves(basis, m - 1, p, q, acc, out)
        acc.pop()
