"""Co-operations on local functions: insertion, general co-composition,
expansion kernels, the cluster filtration, and axiom verification.

The basic co-operation splits the last n-m variables of a local function off
into a cluster around a fresh point.  Writing t for the new outer variable
and t_s = z_{s+m} - t for the cluster offsets, every factor rewrites as

    z_v              ->  t + t_{v-m}                       (v > m)
    (z_v - z_i)^k    ->  ((t - z_i) + t_{v-m})^k           (v > m >= i)
    (z_v - z_i)^k    ->  (t_{v-m} - t_{i-m})^k             (v > i > m)

and the series are expanded in increasing powers of the cluster offsets.
For each outer grading p the coefficient is a finite sum of tensor products,
collected here in TensorElement values.  Insertion of a block other than
the last is obtained by conjugating with the symmetric-group action.  The
general many-block co-composition is iterated insertion, last block first;
it is well defined because insertions into disjoint blocks commute.

Gradings follow localfn: the grading of an outer/inner factor is minus its
scaling degree, and outer + inner grading equals the input grading in every
produced term.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as _iproduct
from typing import Dict, List, Sequence, Tuple

from .errors import BadPartition, BadSplit, BadSubset
from .localfn import (
    LocalFn,
    Monomial,
    basis_monomials,
    mono_level_in_subset,
    mono_sort_key,
    _reduce,
)
from .numutil import gbinom


# ---------------------------------------------------------------------------
# Tensor containers
# ---------------------------------------------------------------------------

def _norm_terms(terms):
    """Reduce an iterable of (f_0, ..., f_r, coeff) to a canonical tuple.

    Bilinearity makes groupings like A (x) B + A (x) C versus A (x) (B + C)
    the same element, so the sum is first expanded down to tuples of basis
    monomials and then regrouped deterministically: every factor but the
    last becomes a single monic monomial, the last factor collects the sum,
    and its leading coefficient is split off into the stored coefficient.
    """
    expanded: Dict[tuple, Fraction] = {}
    arities = None
    for entry in terms:
        *factors, coeff = entry
        coeff = Fraction(coeff)
        if coeff == 0 or any(f.is_zero() for f in factors):
            continue
        arities = tuple(f.arity for f in factors)
        for combo in _iproduct(*(list(f.terms.items()) for f in factors)):
            key = tuple(m for m, _ in combo)
            val = coeff
            for _, c in combo:
                val *= c
            s = expanded.get(key, Fraction(0)) + val
            if s:
                expanded[key] = s
            else:
                del expanded[key]
    if not expanded:
        return ()
    groups: Dict[tuple, Dict[Monomial, Fraction]] = {}
    for key, v in expanded.items():
        groups.setdefault(key[:-1], {})[key[-1]] = v
    out = []
    for prefix in sorted(groups, key=lambda p: tuple(mono_sort_key(m) for m in p)):
        last = LocalFn(arities[-1], groups[prefix])
        lead, prim = last.primitive()
        fs = [LocalFn.from_monomial(arities[i], prefix[i]) for i in range(len(prefix))]
        out.append((*fs, prim, lead))
    return tuple(out)


class TensorElement:
    """One bidegree component of a co-composition: sum of outer (x) inner."""

    __slots__ = ("outer_arity", "inner_arity", "terms")

    def __init__(self, outer_arity: int, inner_arity: int, terms=()):
        self.outer_arity = outer_arity
        self.inner_arity = inner_arity
        self.terms = _norm_terms(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and self.outer_arity == other.outer_arity
            and self.inner_arity == other.inner_arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.outer_arity, self.inner_arity, self.terms))

    def map_factors(self, outer_map=None, inner_map=None) -> "TensorElement":
        out = []
        for outer, inner, c in self.terms:
            out.append(
                (
                    outer_map(outer) if outer_map else outer,
                    inner_map(inner) if inner_map else inner,
                    c,
                )
            )
        oa = out[0][0].arity if out else self.outer_arity
        ia = out[0][1].arity if out else self.inner_arity
        return TensorElement(oa, ia, out)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for outer, inner, c in self.terms:
            lhs = outer.format("z")
            rhs = inner.format("t")
            prefix = "" if c == 1 else f"{c} * "
            bits.append(f"{prefix}[{lhs}] (x) [{rhs}]")
        return " + ".join(bits)

    def to_obj(self):
        return {
            "outer_arity": self.outer_arity,
            "inner_arity": self.inner_arity,
            "terms": [
                {"coeff": str(c), "outer": o.to_obj(), "inner": i.to_obj()}
                for o, i, c in self.terms
            ],
        }


# ---------------------------------------------------------------------------
# Insertion at the last slot
# ---------------------------------------------------------------------------

def _factor_options(fac, v, m, outer_budget):
    """Expansion options of one factor of a monomial under the split at m.

    Returns a list of (outer_delta, outer_piece, inner_exp_mono, coeff):
    outer_piece updates a generalized term on the outer side, inner_exp_mono
    is the factor landing on inner variable v-m (an exponent for pures, or a
    ready factor tuple), and outer_delta is the outer grading contribution.
    """
    kind = fac[0]
    options = []
    if kind == "p":
        l = fac[1]
        for s in range(0, l + 1):
            options.append((-(l - s), ("z", l - s), ("p", s), Fraction(gbinom(l, s))))
    else:
        i, k = fac[1], fac[2]
        if i <= m:
            # ((t - z_i) + t_{v-m})^k, expanded in the cluster offset
            s = 0
            while -k + s <= outer_budget:
                options.append(
                    ((-k) + s, ("d", i, k - s), ("p", s), Fraction(gbinom(k, s)))
                )
                s += 1
        else:
            options.append((0, None, ("d", i - m, k), Fraction(1)))
    return options


def insert_component(f: LocalFn, m: int, p: int) -> TensorElement:
    """Outer-grading-p component of the co-operation splitting the last
    n-m variables of f off into a cluster at the new slot m+1."""
    n = f.arity
    if not 0 <= m < n:
        raise BadSplit(f"split position {m} outside 0..{n - 1}")
    f.grading()  # raises NotHomogeneous when mixed
    oa, ia = m + 1, n - m
    pairs = []
    for mono, coeff in f.terms.items():
        fixed_zp = [0] * oa
        fixed_dp: Dict[Tuple[int, int], int] = {}
        fixed_grading = 0
        var_opts = []
        for v, fac in enumerate(mono, start=1):
            if v <= m:
                if fac[0] == "p":
                    fixed_zp[v - 1] = fac[1]
                    fixed_grading -= fac[1]
                else:
                    fixed_dp[(v, fac[1])] = fac[2]
                    fixed_grading -= fac[2]
            else:
                var_opts.append((v, fac))
        budget = p - fixed_grading
        # minimum outer contribution per factor: pures reach -l, cross diffs |k|
        mins = []
        for v, fac in var_opts:
            if fac[0] == "p":
                mins.append(-fac[1])
            elif fac[1] <= m:
                mins.append(-fac[2])
            else:
                mins.append(0)

        def rec(idx, remaining, zp, dp, inner, coeff_acc):
            if idx == len(var_opts):
                if remaining != 0:
                    return
                outer = LocalFn(oa, _reduce([(coeff_acc, list(zp), dict(dp))], oa))
                inner_mono = tuple(inner)
                pairs.append((outer, LocalFn.from_monomial(ia, inner_mono), Fraction(1)))
                return
            v, fac = var_opts[idx]
            rest_min = sum(mins[idx + 1 :])
            for delta, piece, inner_fac, c in _factor_options(fac, v, m, remaining - rest_min):
                if delta > remaining - rest_min:
                    continue
                zp2, dp2 = zp, dp
                if piece is not None:
                    if piece[0] == "z":
                        if piece[1]:
                            zp2 = list(zp)
                            zp2[oa - 1] += piece[1]
                    else:
                        _, i, k = piece
                        if k:
                            dp2 = dict(dp)
                            dp2[(oa, i)] = dp2.get((oa, i), 0) + k
                rec(idx + 1, remaining - delta, zp2, dp2, inner + [inner_fac], coeff_acc * c)

        rec(0, budget, fixed_zp, fixed_dp, [], coeff)
    return TensorElement(oa, ia, pairs)


def insert_block(f: LocalFn, pos: int, size: int, p: int) -> TensorElement:
    """Insertion clustering the contiguous block [pos, pos+size) of f's
    variables, with the new outer variable placed back at position pos."""
    n = f.arity
    if size < 1 or pos < 1 or pos + size - 1 > n:
        raise BadSplit(f"block [{pos}, {pos + size}) outside 1..{n}")
    m = n - size
    block = list(range(pos, pos + size))
    nonblock = [v for v in range(1, n + 1) if v not in block]
    sigma = [0] * n
    for newpos, v in enumerate(nonblock, start=1):
        sigma[v - 1] = newpos
    for offset, v in enumerate(block, start=1):
        sigma[v - 1] = m + offset
    te = insert_component(f.permute(sigma), m, p)
    oa = m + 1
    if pos == oa:
        return te
    rho = [0] * oa
    for j in range(1, oa):
        rho[j - 1] = j if j < pos else j + 1
    rho[oa - 1] = pos
    return te.map_factors(outer_map=lambda g: g.permute(rho))


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

    This is iterated insert_block, last block first: block b (counted
    from 1) goes in at position 1 + (sizes of blocks 1..b-1) with outer
    grading g - ell_b - ... - ell_k, where g is the grading of f, so the
    blocks still to be inserted never shift.
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
    partial = [(f, (), Fraction(1))]
    pos, p = n + 1, g
    for size, ell in zip(reversed(blocks), reversed(multidegree[1:])):
        pos -= size
        p -= ell
        partial = [
            (outer, (inner, *inners), c1 * c2)
            for h, inners, c1 in partial
            for outer, inner, c2 in insert_block(h, pos, size, p).terms
        ]
    return list(_norm_terms((outer, *inners, c) for outer, inners, c in partial))


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

    Returns {j: coeff of x^j * A^(exponent - j)} for j < orders.
    """
    out = {}
    for j in range(orders):
        out[j] = (
            Fraction(gbinom(exponent, j))
            * Fraction(c_x) ** j
            * Fraction(c_a) ** (exponent - j)
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
        raise ValueError("order_first must be 'u' or 'v'")
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
                    table[(m, n)] = table.get((m, n), Fraction(0)) + cj * gbinom(j, r)
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
        raise ValueError("route must be 1 or 2")
    return table


class KernelTable:
    """Closed-form coefficient tables of the two expansion kernels."""

    __slots__ = ("kind", "coefficients")

    def __init__(self, kind: str, coefficients):
        self.kind = kind
        self.coefficients = coefficients


def kernel_table(kind: str, m_max: int, n_max: int) -> KernelTable:
    if kind == "symmetric":
        coeffs = {
            (m, n): Fraction((-1) ** n * gbinom(m + n, n))
            for m in range(m_max + 1)
            for n in range(n_max + 1)
        }
    elif kind == "associative":
        coeffs = {
            (m, n): Fraction(-gbinom(m + n, m))
            for m in range(m_max + 1)
            for n in range(n_max + 1)
        }
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return KernelTable(kind, coeffs)


# ---------------------------------------------------------------------------
# Cluster filtration and connectivity
# ---------------------------------------------------------------------------

def filtration_level(f: LocalFn, subset) -> int:
    """Least N such that f is N-regular in the chosen variables: the order
    of the singularity when the chosen variables collide at one point."""
    return f.collision_level(subset)


def filtration_basis(n, subset, N, grading, pole_budget):
    """Basis monomials of the level-N filtration piece with the given
    grading and total pole budget."""
    s = sorted(set(subset))
    if not s or s[0] < 1 or s[-1] > n:
        raise BadSubset(f"subset must be nonempty within 1..{n}: {subset}")
    if N < 0:
        return []
    return [
        m
        for m in basis_monomials(n, grading, pole_budget)
        if mono_level_in_subset(m, s) <= N
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
    if not f.is_homogeneous():
        return False
    m = f.arity
    if len(sig.sorts) != m:
        raise BadSubset("need one sort per variable")
    if f.grading() != sum(sig.sorts) - sig.out_sort:
        return False
    for mask in range(1, 1 << m):
        subset = [i + 1 for i in range(m) if mask >> i & 1]
        bound = -k + sum(sig.sorts[i - 1] for i in subset)
        if bound < 0:
            return False
        if f.collision_level(subset) > bound:
            return False
    return True


def induced_signatures(sig: SortSignature, k_conn: int, m: int, p: int):
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
    for p in range(-window, window + 1):
        te = insert_component(f, m, p)
        j, outer_sig, inner_sig = induced_signatures(sig, k, m, p)
        if j < k:
            if not te.is_zero():
                fails.append(f"p={p}: intermediate sort {j} < {k} but component nonzero")
            continue
        by_outer: Dict[Monomial, Dict[Monomial, Fraction]] = {}
        by_inner: Dict[Monomial, Dict[Monomial, Fraction]] = {}
        for outer, inner, c in te.terms:
            for mo, co in outer.terms.items():
                for mi, ci in inner.terms.items():
                    coeff = c * co * ci
                    d = by_outer.setdefault(mo, {})
                    d[mi] = d.get(mi, Fraction(0)) + coeff
                    d = by_inner.setdefault(mi, {})
                    d[mo] = d.get(mo, Fraction(0)) + coeff
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

def _double_split_orders(f, posA, a, posB, b, qA, qB):
    """Insert disjoint blocks A then B and B then A; returns the two merged
    triple lists (outer, innerA, innerB, coeff) for inner gradings qA, qB."""
    assert posA + a <= posB
    g = f.grading()
    # B first: positions unchanged for A
    out1 = []
    teB = insert_block(f, posB, b, g - qB)
    for h, innerB, c1 in teB.terms:
        teA = insert_block(h, posA, a, g - qB - qA)
        for outer, innerA, c2 in teA.terms:
            out1.append((outer, innerA, innerB, c1 * c2))
    # A first: B shifts left by a-1
    out2 = []
    teA = insert_block(f, posA, a, g - qA)
    for h, innerA, c1 in teA.terms:
        teB = insert_block(h, posB - a + 1, b, g - qA - qB)
        for outer, innerB, c2 in teB.terms:
            out2.append((outer, innerA, innerB, c1 * c2))
    return _norm_terms(out1), _norm_terms(out2)


def _coassoc_orders(f, b, b_sub, p_out, p_mid):
    """Split the last b variables, then the last b_sub of the cluster,
    against doing the two splits in the other order."""
    n = f.arity
    g = f.grading()
    out1 = []
    te1 = insert_component(f, n - b, p_out)
    for outer1, inner1, c1 in te1.terms:
        te2 = insert_component(inner1, b - b_sub, p_mid)
        for mid, inner2, c2 in te2.terms:
            out1.append((outer1, mid, inner2, c1 * c2))
    out2 = []
    teA = insert_component(f, n - b_sub, p_out + p_mid)
    for outerBig, inner2, c1 in teA.terms:
        teB = insert_component(outerBig, n - b, p_out)
        for outerFinal, mid, c2 in teB.terms:
            out2.append((outerFinal, mid, inner2, c1 * c2))
    return _norm_terms(out1), _norm_terms(out2)


def _random_monomial(rng, arity_cap):
    n = rng.randint(2, arity_cap)
    for _ in range(40):
        g = rng.randint(-2, 3)
        pole = rng.randint(max(0, g), max(0, g) + 2)
        monos = basis_monomials(n, g, pole)
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
        raise BadSubset("truncation order must be >= 1")
    rng = random.Random(seed)
    checks = []

    def record(kind, fn, slots, component, ok, lhs, rhs):
        entry = {
            "kind": kind,
            "input": str(fn),
            "slots": slots,
            "component": component,
            "status": "ok" if ok else "fail",
        }
        if not ok:
            entry["lhs"] = lhs
            entry["rhs"] = rhs
        checks.append(entry)

    for _ in range(samples):
        kind = rng.choice(["equivariance", "commutativity", "coassociativity"])
        if kind == "equivariance":
            n, f = _random_monomial(rng, arity_cap)
            m = rng.randint(0, n - 1)
            block = n - m
            omega = list(range(1, block + 1))
            rng.shuffle(omega)
            sigma = list(range(1, m + 1)) + [m + omega[j] for j in range(block)]
            tau_head = list(range(1, m + 1))
            rng.shuffle(tau_head)
            tau = tau_head + list(range(m + 1, n + 1))
            for p in range(-truncation, truncation + 1):
                base = insert_component(f, m, p)
                lhs_in = insert_component(f.permute(sigma), m, p)
                rhs_in = base.map_factors(inner_map=lambda h: h.permute(omega))
                ok = lhs_in == rhs_in
                record("equivariance-inner", f, {"m": m, "perm": omega}, p, ok, str(lhs_in), str(rhs_in))
                if m >= 2:
                    lhs_out = insert_component(f.permute(tau), m, p)
                    rho = tau_head + [m + 1]
                    rhs_out = base.map_factors(outer_map=lambda h: h.permute(rho))
                    ok = lhs_out == rhs_out
                    record("equivariance-outer", f, {"m": m, "perm": tau_head}, p, ok, str(lhs_out), str(rhs_out))
        elif kind == "commutativity":
            while True:
                n, f = _random_monomial(rng, arity_cap)
                if n >= 2:
                    break
            a = rng.randint(1, n - 1)
            b = rng.randint(1, n - a)
            posA = rng.randint(1, n - a - b + 1)
            posB = rng.randint(posA + a, n - b + 1)
            for qA in range(-truncation, truncation + 1):
                for qB in range(-truncation, truncation + 1):
                    one, two = _double_split_orders(f, posA, a, posB, b, qA, qB)
                    ok = one == two
                    record(
                        "commutativity",
                        f,
                        {"A": [posA, a], "B": [posB, b]},
                        [qA, qB],
                        ok,
                        str(one),
                        str(two),
                    )
        else:
            while True:
                n, f = _random_monomial(rng, arity_cap)
                if n >= 2:
                    break
            b = rng.randint(2, n)
            b_sub = rng.randint(1, b - 1)
            for p_out in range(-truncation, truncation + 1):
                for p_mid in range(-truncation, truncation + 1):
                    one, two = _coassoc_orders(f, b, b_sub, p_out, p_mid)
                    ok = one == two
                    record(
                        "coassociativity",
                        f,
                        {"block": b, "sub": b_sub},
                        [p_out, p_mid],
                        ok,
                        str(one),
                        str(two),
                    )
    failures = sum(1 for c in checks if c["status"] == "fail")
    return {"checks": checks, "failures": failures}
