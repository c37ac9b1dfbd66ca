"""Independent references for every benchmark op.

Nothing here imports vacalc: each check recomputes the answer from the op's
argv with closed forms (characters, Wick sums, pole counting, a direct
Laurent expansion) and compares it with the op's JSON output.  `verify`
returns None for a correct output and a one-line reason otherwise.
"""

import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

_FACTOR = re.compile(r"^(?:z(\d+)\^(\d+)|\(z(\d+)-z(\d+)\)\^-(\d+))$")


# ---------------------------------------------------------------------------
# argv and expression helpers
# ---------------------------------------------------------------------------

def flag(argv, name, default=None):
    """Value of `--name value` (or `--name=value`) in an argv list."""
    for i, tok in enumerate(argv):
        if tok == name and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok[len(name) + 1:]
    return default


def expression(argv):
    """The expression operand; generated argv lists end `expr --json`."""
    return argv[-2]


def parse_product(text):
    """Split a generated product `z3^1*(z2-z1)^-2*...` into its pure factor
    (var, exp) or None, and the pole orders {(i, j): k} with i < j."""
    pure = None
    poles = {}
    for piece in text.split("*"):
        m = _FACTOR.match(piece)
        if not m:
            raise ValueError(f"not a generated factor: {piece!r}")
        if m.group(1):
            pure = (int(m.group(1)), int(m.group(2)))
        else:
            j, i, k = int(m.group(3)), int(m.group(4)), int(m.group(5))
            poles[(i, j)] = k
    return pure, poles


def product_grading(pure, poles):
    return sum(poles.values()) - (pure[1] if pure else 0)


def gbinom(m, s):
    """C(m, s) for any integer m and s >= 0."""
    if m >= 0:
        return comb(m, s) if s <= m else 0
    return (-1) ** s * comb(s - m - 1, s)


# ---------------------------------------------------------------------------
# Evaluating JSON outputs
# ---------------------------------------------------------------------------

def eval_localfn(obj, points):
    """Value of a serialized LocalFn at exact rational points."""
    total = Fraction(0)
    for term in obj["terms"]:
        val = Fraction(term["coeff"])
        for m, f in enumerate(term["factors"], start=1):
            if f["kind"] == "pure":
                val *= points[m - 1] ** f["exp"]
            else:
                val *= (points[m - 1] - points[f["base"] - 1]) ** f["exp"]
        total += val
    return total


def distinct_points(rng, count):
    pts = set()
    while len(pts) < count:
        pts.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
    out = list(pts)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def partition_series(w_max, rank=1, min_part=1):
    """Coefficients of prod_{n >= min_part} (1 - q^n)^-rank up to q^w_max."""
    coeffs = [1] + [0] * w_max
    for n in range(min_part, w_max + 1):
        for _ in range(rank):
            for w in range(n, w_max + 1):
                coeffs[w] += coeffs[w - n]
    return coeffs


def minimal_model(c):
    """Coprime (p, p') with 2 <= p < p' and c = 1 - 6 (p - p')^2 / (p p'),
    or None when c is not a minimal-model central charge."""
    c = Fraction(c)
    for pp in range(3, 40):
        for p in range(2, pp):
            if Fraction(6 * (p - pp) ** 2, p * pp) == 1 - c and gcd(p, pp) == 1:
                return p, pp
    return None


def virasoro_simple_dims(c, w_max):
    """Graded dimensions of the simple Virasoro vacuum module at central
    charge c: the Rocha-Caridi character for minimal models, else the
    universal module (partitions into parts >= 2)."""
    pq = minimal_model(c)
    if pq is None:
        return partition_series(w_max, min_part=2)
    p, pp = pq
    numerator = [0] * (w_max + 1)
    bound = w_max + 2
    for k in range(-bound, bound + 1):
        a = p * pp * k * k + k * (pp - p)
        b = p * pp * k * k + k * (p + pp) + 1
        if 0 <= a <= w_max:
            numerator[a] += 1
        if 0 <= b <= w_max:
            numerator[b] -= 1
    parts = partition_series(w_max)
    return [
        sum(numerator[i] * parts[w - i] for i in range(w + 1)) for w in range(w_max + 1)
    ]


def wick_value(names, points):
    """Sum over perfect matchings of prod <a_i, a_j> (z_j - z_i)^-2 for an
    orthonormal Heisenberg basis."""
    if not names:
        return Fraction(1)
    first, rest = 0, list(range(1, len(names)))
    total = Fraction(0)
    for j in rest:
        if names[j] != names[first]:
            continue
        others = [i for i in rest if i != j]
        total += (points[j] - points[first]) ** -2 * wick_value(
            [names[i] for i in others], [points[i] for i in others]
        )
    return total


def insert_component_value(n, m, p, pure, poles, z, w, t):
    """Coefficient of eps^(p - g) in f(z_1..z_m, w + eps t_1, ..., w + eps t_{n-m}),
    i.e. the outer-grading-p component of the insertion evaluated at
    (z, w) (x) t, computed by multiplying truncated Laurent series."""
    g = product_grading(pure, poles)
    inner_poles = sum(k for (i, j), k in poles.items() if i > m)
    order = p - g + inner_poles
    if order < 0:
        return Fraction(0)
    series = [Fraction(1)] + [Fraction(0)] * order

    def mul(other):
        for d in range(order, -1, -1):
            series[d] = sum(series[d - s] * other[s] for s in range(d + 1))

    def const(c):
        mul([Fraction(c)] + [Fraction(0)] * order)

    if pure is not None:
        a, l = pure
        if a <= m:
            const(z[a - 1] ** l)
        else:
            mul([gbinom(l, s) * w ** (l - s) * t[a - m - 1] ** s for s in range(order + 1)])
    for (i, j), k in poles.items():
        if j <= m:
            const((z[j - 1] - z[i - 1]) ** -k)
        elif i <= m:
            base, off = w - z[i - 1], t[j - m - 1]
            mul([gbinom(-k, s) * base ** (-k - s) * off ** s for s in range(order + 1)])
        else:
            const((t[j - m - 1] - t[i - m - 1]) ** -k)
    return series[order]


def level_in(poles, subset):
    s = set(subset)
    return sum(k for (i, j), k in poles.items() if i in s and j in s)


def connective_verdict(n, k_conn, sorts, pure, poles):
    out_sort, var_sorts = sorts[0], sorts[1:]
    if product_grading(pure, poles) != sum(var_sorts) - out_sort:
        return False
    for size in range(1, n + 1):
        for subset in combinations(range(1, n + 1), size):
            bound = -k_conn + sum(var_sorts[i - 1] for i in subset)
            if bound < 0 or level_in(poles, subset) > bound:
                return False
    return True


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _exact(text, obj):
    want = json.dumps(obj, sort_keys=True) + "\n"
    return None if text == want else f"expected {want.strip()}, got {text.strip()[:80]}"


def _check_filtration(argv, text):
    subset = [int(x) for x in flag(argv, "--subset").split(",")]
    _, poles = parse_product(expression(argv))
    return _exact(text, {"level": level_in(poles, subset)})


def _check_connective(argv, text):
    n = int(flag(argv, "--arity"))
    sorts = [int(x) for x in flag(argv, "--sorts").split(",")]
    pure, poles = parse_product(expression(argv))
    verdict = connective_verdict(n, int(flag(argv, "--k")), sorts, pure, poles)
    return _exact(text, {"in_connective": verdict})


def _check_insert(argv, text, rng):
    n, m, p = (int(flag(argv, x)) for x in ("--arity", "--m", "--p"))
    pure, poles = parse_product(expression(argv))
    obj = json.loads(text)
    if (obj["outer_arity"], obj["inner_arity"]) != (m + 1, n - m):
        return "wrong arities"
    pts = distinct_points(rng, m + 1)
    z, w = pts[:m], pts[m]
    t = distinct_points(rng, n - m)
    want = insert_component_value(n, m, p, pure, poles, z, w, t)
    got = sum(
        (Fraction(term["coeff"]) * eval_localfn(term["outer"], pts) * eval_localfn(term["inner"], t)
         for term in obj["terms"]),
        Fraction(0),
    )
    return None if got == want else f"tensor value {got} != Laurent coefficient {want}"


def _check_verify_cooperad(argv, text):
    obj = json.loads(text)
    bad = [c for c in obj["checks"] if c["status"] != "ok"]
    if obj["failures"] or bad:
        return f"{obj['failures']} axiom failures"
    return None if obj["checks"] else "no checks ran"


def _check_radical(argv, text):
    w = int(flag(argv, "--weight"))
    obj = json.loads(text)
    if obj["weight"] != w or obj["dimension"] != len(obj["kernel"]):
        return "weight or kernel size inconsistent"
    if flag(argv, "--preset") == "heisenberg":
        spanning = partition_series(w, rank=int(flag(argv, "--rank", "1")))[w]
        simple = spanning
    else:
        c = Fraction(flag(argv, "--c", "1"))
        spanning = partition_series(w, min_part=2)[w]
        simple = virasoro_simple_dims(c, w)[w]
    if len(obj["basis"]) != spanning:
        return f"{len(obj['basis'])} spanning words, expected {spanning}"
    if spanning - obj["dimension"] != simple:
        return f"quotient dimension {spanning - obj['dimension']}, character says {simple}"
    return None


def _check_npoint(argv, text, rng):
    names = flag(argv, "--gens").split(",")
    obj = json.loads(text)
    if obj["arity"] != len(names):
        return "wrong arity"
    if flag(argv, "--preset") == "virasoro":
        return verify_virasoro_correlator(argv, text)
    for _ in range(2):
        pts = distinct_points(rng, len(names))
        want = wick_value(names, pts)
        got = eval_localfn(obj, pts)
        if got != want:
            return f"value {got} != Wick sum {want} at {pts}"
    return None


def stress_tensor_correlator(c, z):
    """<T(z_1)...T(z_r)> for r = 2, 3, 4 (Belavin-Polyakov-Zamolodchikov)."""
    d = {(i, j): z[j] - z[i] for i in range(len(z)) for j in range(len(z)) if i != j}
    if len(z) == 2:
        return c / 2 * d[0, 1] ** -4
    if len(z) == 3:
        return c * (d[0, 1] * d[0, 2] * d[1, 2]) ** -2
    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    cycles = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]
    disconnected = sum((d[a] * d[b]) ** -4 for a, b in pairings)
    connected = sum(
        (d[i, j] * d[j, k] * d[k, l] * d[l, i]) ** -2 for i, j, k, l in cycles
    )
    return c * c / 4 * disconnected + c * connected


def verify_virasoro_correlator(argv, text):
    """Check a Virasoro npoint output against the closed form (2 to 4 points)."""
    rng = random.Random(" ".join(argv))
    c = Fraction(flag(argv, "--c", "1"))
    obj = json.loads(text)
    for _ in range(2):
        pts = distinct_points(rng, obj["arity"])
        want = stress_tensor_correlator(c, pts)
        got = eval_localfn(obj, pts)
        if got != want:
            return f"value {got} != closed form {want}"
    return None


def verify(argv, text):
    """Independent check of one op's stdout; None when it is correct."""
    rng = random.Random(" ".join(argv))
    cmd = argv[0]
    try:
        if cmd == "filtration":
            return _check_filtration(argv, text)
        if cmd == "connective":
            return _check_connective(argv, text)
        if cmd == "insert":
            return _check_insert(argv, text, rng)
        if cmd == "verify-cooperad":
            return _check_verify_cooperad(argv, text)
        if cmd == "radical":
            return _check_radical(argv, text)
        if cmd == "npoint":
            return _check_npoint(argv, text, rng)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return f"no check for command {cmd!r}"
