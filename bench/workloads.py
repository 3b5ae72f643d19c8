"""Seeded inputs with known verdicts for the three workloads.

Every input is generated from the seed alone; none is dropped or redrawn
because liouville fails on it. The roundtrip generator redraws only on
properties of the tree itself: trees that are not functions of x at all
(identically undefined or constant, checked with the benchmark's own
evaluator), and trees of a class whose quota in the run is already full.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from expr import (
    X, ONE, add, const, derive, div, evaluate, exp, log, mul, poly, power,
    sub, tan, to_text,
)

ELEMENTARY, NON_ELEMENTARY = "elementary", "non_elementary"

# where generated trees are probed for being a function of x at all
PROBE_POINTS = (0.37, 1.23, 1.71, 2.46, 3.58)


@dataclass(frozen=True)
class Case:
    text: str
    verdict: str
    family: str
    integrand: tuple


def _case(tree, verdict: str, family: str) -> Case:
    return Case(to_text(tree), verdict, family, tree)


def _derivative_case(F, family: str) -> Case:
    return _case(derive(F), ELEMENTARY, family)


# ----------------------------------------------------------------- roundtrip

_ATOMS = (
    X, add(X, ONE), add(power(X, 2), ONE), mul(const(2), X), sub(X, const(3)),
    const(1), const(2), const(3),
)
_OPS = ("+", "-", "*", "/", "^", "log", "exp")


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_ATOMS)
    op = rng.choice(_OPS)
    if op in ("log", "exp"):
        return (op, _random_tree(rng, depth - 1))
    if op == "^":
        return ("^", _random_tree(rng, depth - 1), rng.randint(2, 3))
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _is_function_of_x(dF) -> bool:
    """D(F) is defined at three probe points and nonzero at one of them."""
    values = []
    for x in PROBE_POINTS:
        try:
            values.append(evaluate(dF, complex(x)))
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
    return len(values) >= 3 and any(abs(v) > 1e-9 for v in values)


def _walk(t):
    yield t
    if t[0] not in ("x", "c"):
        for a in t[1:]:
            if isinstance(a, tuple):
                yield from _walk(a)


def _has_x(t) -> bool:
    return any(n[0] == "x" for n in _walk(t))


def _is_linear(u) -> bool:
    """u is a x + b as written: x and constants under + - and constant
    factors only."""
    tag = u[0]
    if tag in ("+", "-"):
        return _is_linear(u[1]) and _is_linear(u[2])
    if tag == "*":
        return ((not _has_x(u[1]) and _is_linear(u[2]))
                or (not _has_x(u[2]) and _is_linear(u[1])))
    if tag == "/":
        return _is_linear(u[1]) and not _has_x(u[2])
    return tag == "x" or not _has_x(u)


def _magnitude(dF) -> float:
    """Largest |D(F)| on a grid over [1, 2], the interval the numeric check
    tries first; inf where it overflows."""
    peak = 0.0
    for k in range(21):
        try:
            peak = max(peak, abs(evaluate(dF, complex(1 + k / 20))))
        except OverflowError:
            return math.inf
        except (ZeroDivisionError, ValueError):
            continue
    return peak


def _tree_class(F, dF) -> str:
    """huge or large when |D(F)| on [1, 2] reaches 1e9 or 1e6 (the numeric
    check integrates with an absolute tolerance, so size decides its cost);
    otherwise which monomials F brings in, with the suffix _frac when F
    divides by an expression in x."""
    size = _magnitude(dF)
    if size >= 1e9:
        return "huge"
    if size >= 1e6:
        return "large"
    nodes = list(_walk(F))
    exps = [n[1] for n in nodes if n[0] == "exp" and _has_x(n[1])]
    if any(not _is_linear(u) for u in exps):
        kind = "exp_nonlinear"
    elif exps:
        kind = "exp_linear"
    elif any(n[0] == "log" and _has_x(n[1]) for n in nodes):
        kind = "log"
    else:
        kind = "rational"
    if any(n[0] == "/" and _has_x(n[2]) for n in nodes):
        return kind + "_frac"
    return kind


# Share of each class among the generator's trees, measured once over
# 40 000 draws. Every run takes exactly these shares, so a seed changes
# which trees are drawn but not the mix. Time per input differs by orders
# of magnitude between classes (nearly every huge input outlasts the
# budget in the numeric check; a _frac input costs about three times its
# plain class), and with free draws the mix alone moved the total time by
# 10-20 % and the median by 10 % from seed to seed.
ROUNDTRIP_MIX = {
    "rational": 0.4555, "rational_frac": 0.1042, "log": 0.1341,
    "log_frac": 0.0534, "exp_linear": 0.0902, "exp_linear_frac": 0.0334,
    "exp_nonlinear": 0.0647, "exp_nonlinear_frac": 0.0327,
    "large": 0.0104, "huge": 0.0215,
}


def _quotas(count: int) -> dict[str, int]:
    """Largest-remainder split of count by ROUNDTRIP_MIX."""
    raw = {k: count * v for k, v in ROUNDTRIP_MIX.items()}
    out = {k: int(v) for k, v in raw.items()}
    for k in sorted(raw, key=lambda k: out[k] - raw[k])[:count - sum(out.values())]:
        out[k] += 1
    return out


def roundtrip(seed: int, count: int) -> list[Case]:
    """D(F) for random depth-3 trees F; elementary by construction. Trees
    of a class whose quota is full are skipped."""
    rng = random.Random(seed)
    left = _quotas(count)
    out = []
    while len(out) < count:
        F = _random_tree(rng, 3)
        dF = derive(F)
        if not _is_function_of_x(dF):
            continue
        family = _tree_class(F, dF)
        if left[family]:
            left[family] -= 1
            out.append(_case(dF, ELEMENTARY, family))
    return out


# ------------------------------------------------------------------ rational


def _small(rng: random.Random, lo: int = -3, hi: int = 3, nonzero=False) -> int:
    while True:
        v = rng.randint(lo, hi)
        if v or not nonzero:
            return v


def _numerator(rng: random.Random, degree: int):
    coeffs = [_small(rng) for _ in range(degree)] + [_small(rng, nonzero=True)]
    return poly(coeffs)


def _irreducible_quadratic(rng: random.Random):
    """x^2 + p x + q with negative discriminant, so no rational root."""
    while True:
        p, q = _small(rng), rng.randint(1, 5)
        if p * p < 4 * q:
            return poly([q, p, 1])


def _rational_hermite(rng: random.Random, i: int):
    """High multiplicity: Hermite reduction does the work. Multiplicities
    and numerator degree run through a fixed cycle, so each seed gets the
    same mix of shapes."""
    den = mul(power(_irreducible_quadratic(rng), 2 + i % 2),
              power(add(X, const(rng.randint(1, 4))), 1 + (i // 2) % 2))
    return div(_numerator(rng, i % 4), den)


def _eisenstein(rng: random.Random, d: int):
    """x^d + 3 (c_{d-1} x^{d-1} + ... + c_1 x + u) with u not divisible by
    3: irreducible over Q(i) by Eisenstein's criterion at the Gaussian
    prime 3, so no input's cost depends on a lucky factorisation."""
    return poly([3 * rng.choice((-2, -1, 1, 2))]
                + [3 * rng.randint(-1, 1) for _ in range(d - 1)] + [1])


def _rational_rootsum(rng: random.Random, i: int):
    """Irreducible denominator of degree 4, 5, 6 in turn under a quadratic
    numerator: the residues are algebraic, so the log part is a formal root
    sum. (Degree 7 takes 11-14 s per input at the seed commit, too long for
    more than one or two in a run.)"""
    return div(_numerator(rng, 2), _eisenstein(rng, 4 + i % 3))


def _rational_radical(rng: random.Random, i: int):
    """Quadratic denominators with irrational roots: radical rendering."""
    while True:
        p, q = _small(rng), _small(rng, nonzero=True)
        disc = p * p - 4 * q
        if disc > 0 and int(disc ** 0.5) ** 2 != disc:
            break
    return div(_numerator(rng, 1), mul(poly([q, p, 1]), add(X, const(rng.randint(1, 4)))))


# x^6 + a x^3 + b with y^2 + a y + b irreducible over Q(i)
_SPARSE_SEXTICS = ((1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3))


def _rational_mixed(rng: random.Random, i: int):
    """Squared sparse sextic, as in (x^4+1)/(x^6+x^3+2)^2: Hermite reduction
    and a root sum together. The sextics are taken in turn."""
    a, b = _SPARSE_SEXTICS[i % len(_SPARSE_SEXTICS)]
    den = power(add(add(power(X, 6), mul(const(a), power(X, 3))), const(b)), 2)
    return div(_numerator(rng, 3), den)


RATIONAL_FAMILIES = {
    "hermite": _rational_hermite,
    "rootsum": _rational_rootsum,
    "radical": _rational_radical,
    "mixed": _rational_mixed,
}


def rational(seed: int, per_family: dict[str, int]) -> list[Case]:
    """Proper rational functions over Q(x); all elementary."""
    rng = random.Random(seed)
    out = []
    for family, n in per_family.items():
        for i in range(n):
            out.append(_case(RATIONAL_FAMILIES[family](rng, i), ELEMENTARY, family))
    return out


# --------------------------------------------------------------------- tower


def _tower_log_product(rng: random.Random, i: int):
    # (x^2+a)^k / (log(b x) log(x)), log(b x) written log(b) + log(x): the
    # tower holds the constant log(b) below log(x), so every field above it
    # is nested over Q(log b). k alternates 0, 1: at k = 1 the constancy
    # test in _integrate runs nested-field gcds for seconds.
    a, b = rng.randint(1, 3), rng.randint(2, 3)
    return div(power(add(power(X, 2), const(a)), i % 2),
               mul(add(log(const(b)), log(X)), log(X)))


def _tower_log_product_unordered(rng: random.Random, i: int):
    # the same function with log(b x) written as such: the tower meets log(x)
    # first and has to put the constant log(b) above it
    a, b = rng.randint(1, 3), rng.randint(2, 3)
    return div(add(power(X, 2), const(a)), mul(log(X), log(mul(const(b), X))))


def _tower_nested_log(rng: random.Random, i: int):
    # log(x + a log(x))
    return log(add(X, mul(const(rng.randint(1, 3)), log(X))))


def _tower_exp_pole(rng: random.Random, i: int):
    # exp(a/x) (x^2 + b)
    return mul(exp(div(const(rng.randint(1, 3)), X)), add(power(X, 2), const(rng.randint(1, 3))))


def _tower_log_of_exp(rng: random.Random, i: int):
    # exp(a x) log(1 + exp(a x))
    e = exp(mul(const(rng.randint(1, 2)), X))
    return mul(e, log(add(ONE, e)))


def _tower_exp_of_log(rng: random.Random, i: int):
    # x^a exp(log(x)^2)
    return mul(power(X, rng.randint(1, 2)), exp(power(log(X), 2)))


def _tower_log_log_log(rng: random.Random, i: int):
    # c log(log(log(x))): its derivative c/(x log(x) log(log(x))) makes the
    # numeric check's singularity scan take the log of a negative number
    return mul(const(rng.randint(1, 3)), log(log(log(X))))


def _tower_exp_exp(rng: random.Random, i: int):
    # exp(exp(x^2 + a)): the numeric check's quadrature of the derivative
    # runs to its full depth with an absolute tolerance
    return exp(exp(add(power(X, 2), const(rng.randint(1, 2)))))


# families of F whose derivative is the integrand (elementary by construction)
TOWER_FAMILIES = {
    "log_product": _tower_log_product,
    "log_product_unordered": _tower_log_product_unordered,
    "nested_log": _tower_nested_log,
    "exp_pole": _tower_exp_pole,
    "log_of_exp": _tower_log_of_exp,
    "exp_of_log": _tower_exp_of_log,
    "log_log_log": _tower_log_log_log,
    "exp_exp_poly": _tower_exp_exp,
}

# integrands with a known verdict that are not written as D(F): c tan(x)^3
# (elementary: tan(x)^2/2 + log(cos x)) and textbook integrands without an
# elementary antiderivative (erf, Ei, li, Ei(exp x), the integral of
# log(log x) and a dilogarithm; the Risch algorithm proves each)
TOWER_INTEGRANDS = {
    "tan_cube": (ELEMENTARY, power(tan(X), 3)),
    "erf": (NON_ELEMENTARY, exp(power(X, 2))),
    "ei": (NON_ELEMENTARY, div(exp(X), X)),
    "li": (NON_ELEMENTARY, div(ONE, log(X))),
    "exp_exp": (NON_ELEMENTARY, exp(exp(X))),
    "log_log": (NON_ELEMENTARY, log(log(X))),
    "dilog": (NON_ELEMENTARY, div(mul(log(X), log(add(X, ONE))), X)),
}


def tower(seed: int, per_family: dict[str, int]) -> list[Case]:
    """D(F) for F with nested log/exp monomials, and nonzero rational
    multiples of the fixed integrands (a multiple keeps the verdict)."""
    rng = random.Random(seed)
    out = []
    for family, n in per_family.items():
        for i in range(n):
            if family in TOWER_FAMILIES:
                out.append(_derivative_case(TOWER_FAMILIES[family](rng, i), family))
            else:
                verdict, g = TOWER_INTEGRANDS[family]
                c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                out.append(_case(mul(const(c), g), verdict, family))
    return out
