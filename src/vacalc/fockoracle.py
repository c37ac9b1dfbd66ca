"""Brute-force oscillator realizations used to certify the rewriting engine.

Everything here is a separate code path from vacore: states are explicit
multisets of positive oscillator parts (plus an integer lattice label), and
operators act by direct combinatorics.  Agreement between this module and
the normal-form engine is therefore evidence, not circularity.

Conventions, fixed once and used consistently:

* A state is ``(parts, label)`` with ``parts`` a descending tuple of
  positive integers; a vector is a dict mapping states to Fractions.
* ``alpha_act(n, v)`` is the oscillator mode: for n < 0 it adds the part
  -n (coefficient 1), for n > 0 it removes one part n with coefficient
  norm * n per occurrence, and the zero mode reads norm * label.  With
  norm=1 this gives [alpha(m), alpha(n)] = m delta_{m+n,0}.
* ``virasoro_act(n, v)`` uses field modes: n corresponds to the classical
  operator indexed n-1, so the weight operator is virasoro_act(1) and the
  translation operator is virasoro_act(0).  It is 1/2 :alpha alpha: built
  from alpha_act in the norm-1 oscillator, hence central charge 1, and its
  zero-mode terms read the label, so L_0 is state_weight.
* ``lattice_vertex_act`` realizes the exponential vertex operators of the
  rank-1 even lattice (norm 2 by default) with the trivial two-cocycle,
  truncated to a weight cutoff: its factors E+-(z) are exponentials of
  alpha_act modes, so all three realizations act through that one
  primitive.  ``lattice_check`` checks the lattice relations in that
  realization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import SchemaError, TruncationTooSmall

State = Tuple[Tuple[int, ...], int]
FockVec = Dict[State, Fraction]

VACUUM: State = ((), 0)


def vec(state: State = VACUUM, coeff=1) -> FockVec:
    c = Fraction(coeff)
    return {state: c} if c else {}


def _acc(out: FockVec, state: State, coeff: Fraction):
    if state in out:
        coeff += out[state]
    if coeff:
        out[state] = coeff
    else:
        out.pop(state, None)


def v_add(a: FockVec, b: FockVec) -> FockVec:
    out = dict(a)
    for s, c in b.items():
        _acc(out, s, c)
    return out


def v_scale(a: FockVec, c) -> FockVec:
    c = Fraction(c)
    if c == 0:
        return {}
    return {s: v * c for s, v in a.items()}


def state_weight(state: State, norm: int = 1) -> Fraction:
    parts, label = state
    return Fraction(sum(parts)) + Fraction(norm * label * label, 2)


def _add_part(parts: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    return tuple(sorted(parts + (k,), reverse=True))


def _remove_one(parts: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    lst = list(parts)
    lst.remove(k)
    return tuple(lst)


def alpha_act(n: int, v: FockVec, norm: int = 1) -> FockVec:
    """Oscillator mode action; see the module docstring for the convention."""
    out: FockVec = {}
    for (parts, label), coeff in v.items():
        if n == 0:
            _acc(out, (parts, label), coeff * norm * label)
        elif n < 0:
            _acc(out, (_add_part(parts, -n), label), coeff)
        else:
            cnt = parts.count(n)
            if cnt:
                _acc(out, (_remove_one(parts, n), label), coeff * norm * n * cnt)
    return out


def virasoro_act(n: int, v: FockVec) -> FockVec:
    """The norm-1 free-field stress tensor L = 1/2 :alpha alpha: at central
    charge 1, momentum term included; the argument is the field mode,
    classical index m = n - 1.  L_m sums alpha(a) alpha(b) over a + b = m,
    a <= b, with weight 1/2 at a == b: the larger mode acts first, which is
    the normal order, and alpha(b) kills v once b exceeds every part."""
    m = n - 1
    top = max((p for parts, _ in v for p in parts), default=0)
    out: FockVec = {}
    for b in range(-(-m // 2), top + 1):
        a = m - b
        half = Fraction(1, 2) if a == b else 1
        for s, c in alpha_act(a, alpha_act(b, v)).items():
            _acc(out, s, c * half)
    return out


def _exp_alpha(series: Dict[int, FockVec], c: int, m: int, cap: int, norm: int,
               only_cap: bool = False):
    """exp(c alpha(m) z^(-m) / m) on a series {power of z: FockVec}: its
    j-th term (c/m)^j / j! alpha(m)^j moves the power by -m j.  Powers above
    cap are dropped, and with only_cap every power below cap as well; no
    term is computed that would land above cap."""
    out: Dict[int, FockVec] = {}
    for d, v in series.items():
        j = 0
        while v and d - m * j <= cap:
            if not only_cap or d - m * j == cap:
                bucket = out.setdefault(d - m * j, {})
                for state, coeff in v.items():
                    _acc(bucket, state, coeff)
            j += 1
            if d - m * j <= cap:
                v = v_scale(alpha_act(m, v, norm), Fraction(c, m * j))
    return out


def lattice_vertex_act(
    sign: int, n: int, v: FockVec, cutoff: int, norm: int = 2
) -> FockVec:
    """Mode n of the exponential vertex operator for the lattice vector
    sign * lambda (sign in {+1, -1}), truncated to states of weight <= cutoff.

    The operator is e^(sign lambda) z^(sign lambda(0)) E-(z) E+(z) with
    E-(z) E+(z) = exp(-sign sum_(m != 0) alpha(m) z^(-m) / m), one
    exponential of an alpha_act mode per m: E+ (m > 0) acts first and
    lowers the power of z by the degree it removes, and E- (m < 0) raises
    it by the degree it creates.  On a state of label l, z^(sign lambda(0))
    gives z^(sign l norm), so mode n, the coefficient of z^(-n-1), reads
    the power target = -n - 1 - sign l norm of E-(z) E+(z), and every state
    it makes weighs target more than the input's parts at label l + sign.

    The cocycle is trivial, legitimate for an even lattice (norm positive
    and even); other sign conventions give isomorphic algebras.
    """
    _require_even_norm(norm)
    if sign not in (1, -1):
        raise SchemaError("sign must be +1 or -1")
    if cutoff < 0:
        raise TruncationTooSmall("cutoff must be >= 0")
    for state in v:
        if state_weight(state, norm) > cutoff:
            raise TruncationTooSmall(
                f"input state {state} already beyond cutoff {cutoff}"
            )
    out: FockVec = {}
    for (parts, label), coeff in v.items():
        new_label = label + sign
        target = -n - 1 - sign * label * norm
        if state_weight((parts, new_label), norm) + target > cutoff:
            continue
        series = {0: {(parts, new_label): coeff}}
        for k in set(parts):
            series = _exp_alpha(series, -sign, k, 0, norm)
        # E+ left no power below -sum(parts), so E- needs no part above
        # target + sum(parts); its last step, k = 1, keeps power target only
        for k in range(target + sum(parts), 0, -1):
            series = _exp_alpha(series, -sign, -k, target, norm, k == 1)
        for state, c in series.get(target, {}).items():
            _acc(out, state, c)
    return out


# ---------------------------------------------------------------------------
# Dimension series
# ---------------------------------------------------------------------------

def series_dims(kind, w_max: int) -> List[int]:
    """Coefficient lists of the certification series.

    kind is "partitions", "partitions_min_part_2", or ("theta_over_eta", norm)
    with norm a positive even integer.
    """
    if w_max < 0:
        raise SchemaError("w_max must be >= 0")
    if kind == "partitions":
        return _partition_counts(w_max, min_part=1)
    if kind == "partitions_min_part_2":
        return _partition_counts(w_max, min_part=2)
    if isinstance(kind, tuple) and kind[0] == "theta_over_eta":
        norm = kind[1]
        _require_even_norm(norm)
        eta_inv = _partition_counts(w_max, min_part=1)
        theta = [0] * (w_max + 1)
        m = 0
        while norm * m * m // 2 <= w_max:
            theta[norm * m * m // 2] += 1 if m == 0 else 2
            m += 1
        return [
            sum(theta[j] * eta_inv[w - j] for j in range(w + 1))
            for w in range(w_max + 1)
        ]
    raise SchemaError(f"unknown series kind {kind!r}")


def _require_even_norm(norm: int):
    if norm <= 0 or norm % 2:
        raise SchemaError("norm must be a positive even integer")


def _partition_counts(w_max: int, min_part: int) -> List[int]:
    dp = [0] * (w_max + 1)
    dp[0] = 1
    for part in range(min_part, w_max + 1):
        for w in range(part, w_max + 1):
            dp[w] += dp[w - part]
    return dp


def lattice_graded_dims(w_max: int, norm: int = 2) -> List[int]:
    """Dimensions of the lattice realization by direct state enumeration."""
    _require_even_norm(norm)
    dims = []
    for w in range(w_max + 1):
        count = 0
        m = 0
        while norm * m * m // 2 <= w:
            rest = w - norm * m * m // 2
            labels = 1 if m == 0 else 2
            count += labels * len(_partitions_of(rest))
            m += 1
        dims.append(count)
    return dims


def _partitions_of(total: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []
    _partitions_rec(total, total if total else 1, [], out)
    return out


def _partitions_rec(remaining: int, max_part: int, acc: List[int], out) -> None:
    """Append to out every partition of remaining into parts <= max_part,
    each after the parts acc, in descending lexicographic order."""
    if remaining == 0:
        out.append(tuple(acc))
        return
    for p in range(min(remaining, max_part), 0, -1):
        acc.append(p)
        _partitions_rec(remaining - p, p, acc, out)
        acc.pop()


def vec_to_obj(v: FockVec):
    """JSON-friendly dump: [{parts, label, coeff}] in deterministic order."""
    return [
        {"parts": list(parts), "label": label, "coeff": str(c)}
        for (parts, label), c in sorted(v.items())
    ]


def _apply_word(act, modes) -> FockVec:
    """Apply a chain of modes to the vacuum (rightmost first)."""
    v = vec()
    for n in reversed(list(modes)):
        v = act(n, v)
        if not v:
            break
    return v


def heisenberg_word(modes, norm: int = 1) -> FockVec:
    """Apply a chain of oscillator modes to the vacuum (rightmost first)."""
    return _apply_word(lambda n, v: alpha_act(n, v, norm), modes)


def virasoro_word(modes) -> FockVec:
    """Apply a chain of quadratic-realization field modes to the vacuum."""
    return _apply_word(virasoro_act, modes)


# ---------------------------------------------------------------------------
# Lattice checks
# ---------------------------------------------------------------------------

def lattice_check(truncation: int = 4) -> dict:
    """Verify the relations of the rank-1 even lattice of norm 2 in its
    explicit realization (lattice_vertex_act).

    Checks, per generator pair (s1*lambda, s2*lambda) with pairing
    p = s1*s2*norm:  the product modes vanish for n >= -p (the regularity
    relation), the weight-consistent mode of the opposite pair is the
    vacuum with coefficient one, and the realization dimensions match the
    theta-over-eta series for weights 0..3.
    """
    norm = 2
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
            state = vec(((), s2))
            for n in range(-pairing, -pairing + truncation + 1):
                got = lattice_vertex_act(s1, n, state, truncation, norm)
                record(
                    "regularity",
                    f"({s1:+d}L)({n})({s2:+d}L) = 0",
                    got == {},
                    vec_to_obj(got) if got else None,
                )
            lead = lattice_vertex_act(s1, -pairing - 1, state, truncation, norm)
            record(
                "leading-term",
                f"({s1:+d}L)({-pairing - 1})({s2:+d}L) nonzero",
                bool(lead),
                vec_to_obj(lead),
            )
    vac_mode = norm - 1
    for s in (1, -1):
        got = lattice_vertex_act(s, vac_mode, vec(((), -s)), truncation, norm)
        record(
            "unit-product",
            f"({s:+d}L)({vac_mode})({-s:+d}L) = 1",
            got == vec(),
            vec_to_obj(got),
        )
    dims = lattice_graded_dims(3, norm)
    series = series_dims(("theta_over_eta", norm), 3)
    record("graded-dims", f"realization dims 0..3 = {series}", dims == series, dims)
    return {"checks": checks, "failures": failures}
