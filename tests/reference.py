"""Independent reference routes for the tests.

Each function here recomputes what a production route of vacalc computes,
by another method, and shares no code with it unless its entry below says
so: only the input is common.

* eval_raw evaluates a parsed expression tree at points, with no
  canonical form (the check of localfn's canonicalization);
* nf_word_bubble straightens a mode word by swapping the leftmost
  offending pair, and reads each table entry's modes with its own formula
  (the check of Presentation.normal_form, which straightens suffix first);
* expand_tensor multiplies out a sum of tensor products of LocalFns term
  by term (the check of cocompose_general, which composes block by block
  on its expanded sum through cooperad's one insertion step, _compose),
  and regroup_tensor puts the expansion in
  the canonical grouped form;
* regroup, tensor_str and tensor_obj group an expanded sum into one
  LocalFn per group and split off its lead with LocalFn.primitive, then
  print through LocalFn.format and fn_obj (the check of cooperad's
  _groups, which groups, orders and divides plain monomials, and of
  TensorElement's str and to_json, which print from it).  LocalFn's term
  printing and division rule are common to both sides; the output pins
  check those;
* fn_obj builds the JSON object of a LocalFn as a tree of dicts, one dict
  per factor occurrence (the check of LocalFn.to_json and
  TensorElement.to_json, which write the text of each distinct factor and
  inner function once and join it).
* lowering_generators brackets every kept lowering mode with every
  generator, reading the table modes with _entry_modes, and eliminates
  each drop's brackets in full (the check of _lowering_generators, which
  brackets only the pairs with a non-vacuum table word, through
  _mode_bracket, and stops each drop at its first full echelon).  It
  shares _echelon with production;
* radical_stacked computes the radical by straightening every spanning
  word under every generating lowering mode of lowering_generators and
  eliminating once per weight (the check of _radical_kernels, which
  imposes one generator at a time and skips the words its running echelon
  already forces to 0).  It shares the straightening, the spanning words
  and the elimination with _radical_kernels, and checks only which words
  are straightened.

The module name has no test_ prefix, so pytest collects nothing from it.
"""

from fractions import Fraction
from itertools import product
from math import factorial, prod

from vacalc.errors import ArityMismatch, CoincidentPoints, VacalcError
from vacalc.localfn import LocalFn, mono_sort_key
from vacalc.numutil import _cross_reduce, _echelon, _kernel
from vacalc.vacore import VAElement, spanning_basis


def eval_raw(expr, points) -> Fraction:
    """Evaluate the raw tree of expr at points.  A chain of +, - or * is
    walked along its left spine, so a long sum or product does not
    recurse."""
    points = [Fraction(p) for p in points]
    if len(points) != expr.arity:
        raise ArityMismatch(f"need {expr.arity} points, got {len(points)}")
    if len(set(points)) != len(points):
        raise CoincidentPoints(f"points must be pairwise distinct: {points}")

    def ev(node):
        tag = node[0]
        if tag == "rat":
            return node[1]
        if tag == "var":
            return points[node[1] - 1]
        if tag == "neg":
            return -ev(node[1])
        if tag == "pow":
            base = ev(node[1])
            if node[2] < 0 and base == 0:
                raise CoincidentPoints("pole hit during evaluation")
            return base ** node[2]
        if tag not in ("add", "sub", "mul"):
            raise AssertionError(node)
        kinds = ("mul",) if tag == "mul" else ("add", "sub")
        rights = []
        while node[0] in kinds:
            rights.append((node[0], node[2]))
            node = node[1]
        val = ev(node)
        for op, rhs in reversed(rights):
            if op == "mul":
                val *= ev(rhs)
            elif op == "add":
                val += ev(rhs)
            else:
                val -= ev(rhs)
        return val

    return ev(expr.tree)


class NonTerminating(VacalcError):
    """nf_word_bubble took more than its bound of rewrite steps.

    bound is the step bound and word the printed word being rewritten.
    """

    fields = ("bound", "word")


def _binom(x: int, k: int) -> int:
    """x (x-1) ... (x-k+1) / k! for any integer x and k >= 0."""
    return prod(range(x - k + 1, x + 1)) // factorial(k)


def _entry_modes(entry, N: int):
    """Mode N of a table entry as (generator, mode, coefficient) triples,
    with generator None for the identity.  By (Ta)(n) = -n a(n-1), mode N
    of (1/s!) T^s g = g(-1-s)1 is (-1)^s N (N-1) ... (N-s+1) / s! times
    g(N - s); mode N of the vacuum is the identity at N = -1, else 0."""
    out = []
    for word, c in entry.items():
        if not word:
            if N == -1:
                out.append((None, None, c))
            continue
        ((g, mode),) = word
        s = -1 - mode
        coeff = c * (-1) ** s * _binom(N, s)
        if coeff:
            out.append((g, N - s, coeff))
    return out


def nf_word_bubble(pres, word, bound: int = 10**6):
    """Normal form of the mode word applied to the vacuum, as {normal word:
    Fraction}, by a worklist that swaps the leftmost offending pair with
    the commutator rule a(m) b(k) = b(k) a(m) + sum_j C(m, j)
    ([a, b]_j)(m+k-j).  Raises NonTerminating after bound steps."""
    out = {}
    stack = [(Fraction(1), list(word))]
    steps = 0
    while stack:
        steps += 1
        if steps > bound:
            raise NonTerminating(
                f"exceeded {bound} rewrite steps", bound=bound, word=pres.word_str(word)
            )
        coeff, ms = stack.pop()
        if sum(pres.weights[g] - n - 1 for g, n in ms) < 0:
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
            w = tuple(ms)
            s = out.get(w, Fraction(0)) + coeff
            if s:
                out[w] = s
            else:
                del out[w]
            continue
        (a, m), (b, k) = ms[idx], ms[idx + 1]
        head, tail = ms[:idx], ms[idx + 2 :]
        stack.append((coeff, head + [(b, k), (a, m)] + tail))
        for j, entry in pres.ope.get((a, b), {}).items():
            cmj = _binom(m, j)
            if cmj == 0:
                continue
            for g, n, c in _entry_modes(entry, m + k - j):
                middle = [] if g is None else [(g, n)]
                stack.append((coeff * cmj * c, head + middle + tail))
    return out


def lowering_generators(pres, top: int):
    """The (generator, drop) pairs, d <= top, whose lowering modes generate
    every lowering mode up to drop top, sorted by drop and then generator.
    Drop by drop, every kept mode a(p) is bracketed with the drop d - d1
    mode b(q) of every generator b, as sum_j C(p, j) ([a, b]_j)(p + q - j),
    and g is kept when its column (numbered in reverse) is not a pivot of
    the echelon of all those brackets."""
    ngen = len(pres.gens)
    out = []
    for d in range(1, top + 1):
        rows = []
        for a, d1 in out:
            p = pres.wt(a) + d1 - 1
            for b in range(ngen):
                q = pres.wt(b) + d - d1 - 1
                row = {}
                for j in pres.ope.get((a, b), {}):
                    if _binom(p, j):
                        for g, _, c in _entry_modes(pres.ope[(a, b)][j], p + q - j):
                            if g is not None:  # the identity is at N = -1 only; here N >= q >= 0
                                row[ngen - 1 - g] = row.get(ngen - 1 - g, 0) + _binom(p, j) * c
                rows.append(row)  # _echelon drops zero entries
        pivots = _echelon(rows)
        out.extend((g, d) for g in range(ngen) if ngen - 1 - g not in pivots)
    return out


def radical_stacked(pres, w_max: int):
    """(weight, basis, kernel elements) of Rad_u for u = 0..w_max.  Each
    generating lowering mode g(m) of drop d is applied to every spanning
    word of weight u, the image is reduced modulo Rad_(u-d), and its
    entries at the non-pivot columns of Rad_(u-d) are conditions; all of
    them are stacked and eliminated once."""
    imposed = lowering_generators(pres, w_max)
    columns, rads, out = [], [], []
    for u in range(w_max + 1):
        basis = spanning_basis(pres, u)
        rows = [] if u else [{0: 1}]  # Rad_0 = 0
        for g, d in imposed:
            if d > u:
                break
            cols, (scale, rad) = columns[u - d], rads[u - d]
            m = pres.wt(g) + d - 1
            conditions = {c: {} for c in range(len(cols)) if c not in rad}
            for j, b in enumerate(basis):
                image = {cols[w]: c for w, c in pres.prepend_mode(g, m, b).items()}
                for c, v in _cross_reduce(image, rad, scale).items():
                    conditions[c][j] = v
            rows.extend(conditions.values())
        scale, kernel = _kernel(rows, len(basis))
        columns.append({b: j for j, b in enumerate(basis)})
        rads.append((scale, kernel))
        elements = [VAElement(pres, {basis[j]: Fraction(v, scale) for j, v in vec.items()})
                    for vec in kernel.values()]
        out.append((u, basis, elements))
    return out


def expand_tensor(terms):
    """{(m_0, ..., m_r): coeff} of the sum of the tensor products
    coeff * f_0 (x) ... (x) f_r given as (f_0, ..., f_r, coeff) tuples of
    LocalFns, one product of basis monomials at a time."""
    out = {}
    for *factors, coeff in terms:
        for combo in product(*(f.terms.items() for f in factors)):
            key = tuple(m for m, _ in combo)
            out[key] = out.get(key, 0) + coeff * prod(c for _, c in combo)
    return out


def regroup_tensor(terms):
    """The canonical tuple of expand_tensor(terms), as cocompose_general
    lists its result."""
    terms = list(terms)
    arities = tuple(f.arity for f in terms[0][:-1]) if terms else ()
    return regroup(expand_tensor(terms), arities)


def regroup(expanded, arities):
    """The canonical tuple of the expanded sum {(m_0, ..., m_r): coeff},
    with factor arities given by arities: one (monic LocalFn per prefix
    monomial, ..., LocalFn.primitive of the last factor's LocalFn, lead)
    tuple per prefix (m_0, ..., m_(r-1)), in the order of the prefixes'
    sort keys.  Zero coefficients are skipped."""
    groups = {}
    for key, v in expanded.items():
        if v:
            groups.setdefault(key[:-1], {})[key[-1]] = v
    out = []
    for prefix in sorted(groups, key=lambda p: tuple(mono_sort_key(m) for m in p)):
        lead, prim = LocalFn(arities[-1], groups[prefix]).primitive()
        fs = [LocalFn.from_monomial(a, m) for a, m in zip(arities, prefix)]
        out.append((*fs, prim, lead))
    return tuple(out)


def _grouped(te):
    return regroup(te.terms, (te.outer_arity, te.inner_arity))


def tensor_str(te) -> str:
    """The text of a TensorElement, from regroup."""
    bits = []
    for outer, inner, c in _grouped(te):
        prefix = "" if c == 1 else f"{c} * "
        bits.append(f"{prefix}[{outer.format('z')}] (x) [{inner.format('t')}]")
    return " + ".join(bits) or "0"


def fn_obj(f) -> dict:
    """The JSON object of a LocalFn: its terms in print order, each
    coefficient as text and each factor as its own dict."""
    terms = []
    for mono, coeff in sorted(f.terms.items(), key=lambda t: mono_sort_key(t[0])):
        factors = [{"kind": "pure", "exp": fac[1]} if fac[0] == "p"
                   else {"kind": "diff", "base": fac[1], "exp": fac[2]} for fac in mono]
        terms.append({"coeff": str(coeff), "factors": factors})
    return {"arity": f.arity, "terms": terms}


def tensor_obj(te) -> dict:
    """The JSON object of a TensorElement, from regroup."""
    return {
        "outer_arity": te.outer_arity,
        "inner_arity": te.inner_arity,
        "terms": [
            {"coeff": str(c), "outer": fn_obj(o), "inner": fn_obj(i)}
            for o, i, c in _grouped(te)
        ],
    }
