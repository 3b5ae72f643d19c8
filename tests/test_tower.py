"""Tower construction, the derivation, dependence screening, zero testing."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import liouville
from liouville.algebra.gaussian import GaussRat
from liouville.errors import UnsupportedError, DependentMonomialError
from liouville.syntax import parse
from liouville.tower import (
    Tower, TowerElem, build_tower, convert_expr,
    _dependence_basis, _relation_solve,
)


def build(text, var="x"):
    return build_tower(parse(text), var)


def rand_elem(t, rng, depth_level):
    """Random element of the tower field up to the given level."""
    F0 = t.field(0)

    def rand_base():
        num = F0.poly([GaussRat(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        den = F0.poly([GaussRat(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))])
        while den.is_zero():
            den = F0.poly([GaussRat(rng.randint(-2, 2)) for _ in range(2)])
        from liouville.algebra.ratfunc import RatFunc
        return TowerElem(t, 0, RatFunc(num, den))

    e = rand_base()
    for lvl in range(1, depth_level + 1):
        th = t.theta(lvl)
        e = e * th + rand_base() + th * th * rng.randint(-2, 2)
    return e


# --------------------------------------------------------------- structure


def test_build_examples():
    t, f = build("exp(x^2)")
    assert t.height == 1 and t.monomials[0].kind == "exp"
    assert f == t.theta(1)

    t, f = build("1/log(x)")
    assert t.height == 1 and t.monomials[0].kind == "log"
    assert f == t.one() / t.theta(1)

    # deduplication up to canonical equality of arguments
    t, f = build("exp(x)*exp(x)")
    assert t.height == 1
    assert f == t.theta(1) ** 2


def test_build_forced_simplifications():
    t, f = build("exp(log(x))")
    assert f == t.x()
    t, f = build("log(exp(x))")
    assert f == t.x()
    # exp(2x) with exp(x) present collapses to theta^2
    t, f = build("exp(x) + exp(2*x)")
    assert t.height == 1
    assert f == t.theta(1) + t.theta(1) ** 2
    # log(x^2) with log(x) present collapses to 2*theta
    t, f = build("log(x) + log(x^2)")
    assert t.height == 1
    assert f == t.theta(1) * 3


def test_build_rejects_algebraic():
    with pytest.raises(UnsupportedError, match="algebraic"):
        build("x^(1/2)")
    # exp(x/2) after exp(x) needs a square root of exp(x)
    with pytest.raises(DependentMonomialError):
        build("exp(x) + exp(x/2)")
    # reverse order folds exp(x) into exp(x/2)^2 and is fine
    t, f = build("exp(x/2) + exp(x)")
    assert t.height == 1
    assert f == t.theta(1) + t.theta(1) ** 2


def test_degenerate_constant_monomials():
    t, f = build("log(2)")
    assert t.height == 1
    assert t.derive(f).is_zero()
    t, f = build("exp(x + 1)")
    assert t.height == 1  # a single independent monomial
    assert (t.derive(f) - f).is_zero()  # d/dx exp(x+1) = exp(x+1)
    # with exp(x) already present, exp(x+1) splits into exp(1)*exp(x)
    t, f = build("exp(x) + exp(x + 1)")
    assert t.height == 2
    assert sorted(m.kind for m in t.monomials) == ["exp", "exp"]
    assert any(m.arg.is_constant() for m in t.monomials)
    assert (t.derive(f) - (t.theta(1) + f - t.theta(1))).is_zero()
    d = t.derive(f)
    assert (d - f).is_zero()  # both summands are fixed by d/dx


def test_unknown_variable():
    with pytest.raises(UnsupportedError, match="unknown variable"):
        build("x + y")


# --------------------------------------------------------------- derivation


def test_derive_examples():
    t, f = build("log(x)")
    d = t.derive(f)
    assert d == t.one() / t.x()

    t, _ = build("exp(x)")
    th = t.theta(1)
    d = t.derive(t.x() * th)
    assert d == th + t.x() * th  # Leibniz by hand

    assert t.derive(t.const(GaussRat(Fraction(3, 2)))).is_zero()


def test_derive_product_of_levels():
    t, f = build("log(x)*exp(x)")
    x = t.x()
    # D(log x * exp x) = exp(x)/x + log(x)*exp(x)
    lg = t.theta(1) if t.monomials[0].kind == "log" else t.theta(2)
    ex = t.theta(2) if t.monomials[0].kind == "log" else t.theta(1)
    assert (t.derive(f) - (ex / x + lg * ex)).is_zero()


def test_derivation_axioms_random():
    t, _ = build("log(x) + exp(x)")
    rng = random.Random(41)
    for _ in range(60):
        f = rand_elem(t, rng, 2)
        g = rand_elem(t, rng, 2)
        assert (t.derive(f + g) - t.derive(f) - t.derive(g)).is_zero()
        assert (t.derive(f * g) - (t.derive(f) * g + f * t.derive(g))).is_zero()


def test_monomial_derivative_laws():
    t, _ = build("log(x^2 + 1) + exp(x^3)")
    for mono in t.monomials:
        th = t.theta(mono.level)
        d_arg = t.derive(mono.arg)
        if mono.kind == "log":
            assert (t.derive(th) * mono.arg - d_arg).is_zero()
        else:
            assert (t.derive(th) - d_arg * th).is_zero()


# ----------------------------------------------------------- zero / constant


def test_is_zero_examples():
    t, f = build("exp(x)*exp(-x) - 1")
    assert f.is_zero()

    t, f = build("log(x) - x")
    assert not f.is_zero()

    t, f = build("x*log(x) - x")
    d = t.derive(f)
    lg = t.theta(1)
    assert (d - lg).is_zero()  # hand differentiation of x log x - x


def test_constant_part():
    t, f = build("3/2")
    assert f.is_constant() and f.const_value() == GaussRat(Fraction(3, 2))
    t, f = build("log(x)")
    assert not f.is_constant() and not t.is_formal_constant(f)
    t, f = build("exp(x)*exp(-x)")
    assert f.is_constant() and f.const_value() == GaussRat(1)
    # a formal constant of positive level has no Gaussian-rational value
    t, f = build("log(2)*exp(1)")
    assert t.is_formal_constant(f) and not f.is_constant()


# towers with constant monomials both below and above x-dependent ones
_MIXED_TOWERS = (
    "log(2) + log(x) + log(3)",
    "exp(1) + exp(x) + log(2)",
    "log(3) + log(x + 1) + exp(1)",
    "exp(1) + log(log(x))",
    "log(log(x)) + exp(x) + log(2)",
)


def _rand_mixed(t, rng, gens):
    """A random rational expression in the generators with small Gaussian
    rational coefficients."""
    def term():
        c = t.const(GaussRat(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-1, 1))))
        return c * rng.choice(gens) ** rng.randint(0, 2)

    e = term()
    for _ in range(rng.randint(1, 2)):
        op = rng.choice("+*/")
        u = term() + rng.choice(gens)
        if op == "+":
            e = e + u
        elif op == "*":
            e = e * u
        elif not u.is_zero():
            e = e / u
    return e


def test_formal_constant_agrees_with_derivative():
    """The structural constancy test against the reference D(f) = 0."""
    rng = random.Random(2323)
    cases = constants = 0
    for text in _MIXED_TOWERS:
        t, _ = build(text)
        levels = [m.level for m in t.monomials]
        const_levels = [lv for lv in levels if t.monomial_dlog(lv).is_zero()]
        assert const_levels and len(const_levels) < len(levels)
        const_gens = [t.theta(lv) for lv in const_levels]
        all_gens = [t.x()] + [t.theta(lv) for lv in levels]
        for k in range(48):
            g = _rand_mixed(t, rng, const_gens if k % 2 else all_gens)
            expected = t.derive(g).is_zero()
            assert t.is_formal_constant(g) == expected, (text, str(g))
            cases += 1
            constants += expected
    assert cases >= 200 and 3 * constants >= cases


def test_is_zero_agrees_with_numeric():
    rng = random.Random(43)
    t, _ = build("log(x) + exp(x)")
    agree = 0
    for _ in range(200):
        f = rand_elem(t, rng, rng.randint(0, 2))
        symbolic = f.is_zero()
        numeric_zero = True
        checked = 0
        trials = 0
        while checked < 20 and trials < 200:
            trials += 1
            xv = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.2, 0.2))
            try:
                v = t.eval_complex(f, xv)
            except ZeroDivisionError:
                continue
            if abs(v) > 1e-9 * max(1.0, abs(v)):
                if abs(v) > 1e-9:
                    numeric_zero = False
                    break
            checked += 1
        if checked == 0 and trials >= 200:
            continue
        assert symbolic == numeric_zero, str(f)
        agree += 1
    assert agree > 150


# ------------------------------------------------------ dependence screening


def test_relation_solve_examples():
    # exp(log x) over [log x]: D(log x) = 1 * dlog(x)
    t, _ = build("log(x)")
    basis, _ = _dependence_basis(t)
    assert _relation_solve(t, basis, t.derive(t.theta(1))) == [1]

    # exp(x^2) over the base: no basis, no relation
    t = Tower("x")
    assert _relation_solve(t, [], t.derive(t.x() * t.x())) is None

    # log(x^2) over [log x]: dlog(x^2) = 2 * dlog(x)
    t, _ = build("log(x)")
    basis, _ = _dependence_basis(t)
    x2 = t.x() * t.x()
    assert _relation_solve(t, basis, t.derive(x2) / x2) == [2]

    # exp((1+i)x) over [exp(x), exp(i x)]: a relation over Q, not over Q(i)
    t, _ = build("exp(x) + exp(i*x)")
    basis, _ = _dependence_basis(t)
    assert _relation_solve(t, basis, t.const(GaussRat(1, 1))) == [1, 1]
    assert _relation_solve(t, basis[:1], t.const(GaussRat(0, 1))) is None


def test_relation_solve_in_tower():
    t, _ = build("log(x) + exp(x^2)")
    basis, labels = _dependence_basis(t)
    assert len(labels) == t.height == 2
    for k in range(len(basis)):
        others = basis[:k] + basis[k + 1:]
        assert _relation_solve(t, others, basis[k]) is None


_EXP_GENS = ["x", "i*x", "x^2", "i*x^2", "x^3", "i*x^3"]
_LOG_GENS = ["x", "x + 1", "x - 2", "x^2 + 1", "x^2 + x + 1"]


def test_planted_relations_are_folded():
    """Q-linear relations among exp arguments with complex coefficients and
    among dlogs of products are found exactly: exp(sum c_k g_k + e log a) and
    log(prod a_j^e_j) add no monomial and equal the product or sum of the
    monomials already in the tower."""
    rng = random.Random(28)
    for _ in range(500):
        gens = rng.sample(_EXP_GENS, rng.randint(1, 3))
        logs = rng.sample(_LOG_GENS, rng.randint(1, 2))
        t, _ = build(" + ".join([f"exp({g})" for g in gens] + [f"log({a})" for a in logs]))
        height = t.height
        thetas = {(m.kind, m.arg): t.theta(m.level) for m in t.monomials}
        cs = [rng.randint(-2, 2) for _ in gens]
        if not any(cs):
            cs[0] = 1
        e, a = rng.randint(-2, 2), rng.choice(logs)
        planted = " + ".join(f"({c})*({g})" for c, g in zip(cs, gens))
        f = convert_expr(t, parse(f"exp({planted} + ({e})*log({a}))"))
        expected = convert_expr(t, parse(a)) ** e
        for c, g in zip(cs, gens):
            expected = expected * thetas["exp", convert_expr(t, parse(g))] ** c
        assert t.height == height, planted
        assert (f - expected).is_zero(), planted
        es = [rng.randint(-2, 2) for _ in logs]
        if not any(es):
            es[0] = 1
        f = convert_expr(t, parse("log(" + "*".join(f"({a})^({e})" for a, e in zip(logs, es)) + ")"))
        expected = t.zero()
        for a, e in zip(logs, es):
            expected = expected + thetas["log", convert_expr(t, parse(a))] * e
        assert t.height == height, logs
        assert (f - expected).is_zero(), (logs, es)


# ----------------------------------------------- differential automorphisms


def subst_theta(t, f, level, a, b):
    """Apply theta -> a*theta + b to a TowerElem at the given level."""
    from liouville.algebra.poly import Poly
    from liouville.algebra.ratfunc import RatFunc

    F = t.field(level)
    below = t.field(level - 1)
    rep = t.lift_rep(f.rep, f.level, level)
    image = Poly(below, [b, a], F.var)

    def map_poly(p):
        acc = Poly(below, [], F.var)
        for c in reversed(p.coeffs):
            acc = acc * image + Poly.const(below, c, F.var)
        return acc

    return TowerElem(t, level, RatFunc(map_poly(rep.num), map_poly(rep.den)))


def test_galois_commutation():
    rng = random.Random(47)
    # exp monomial: theta -> c*theta commutes with the derivation
    t, _ = build("exp(x)")
    for _ in range(40):
        f = rand_elem(t, rng, 1)
        c = t.field(0).from_coeff(GaussRat(rng.randint(1, 5)))
        zero_b = t.field(0).zero()
        lhs = t.derive(subst_theta(t, f, 1, c, zero_b))
        rhs = subst_theta(t, t.derive(f), 1, c, zero_b)
        assert (lhs - rhs).is_zero()
    # log monomial: theta -> theta + c
    t, _ = build("log(x)")
    for _ in range(40):
        f = rand_elem(t, rng, 1)
        one = t.field(0).one()
        c = t.field(0).from_coeff(GaussRat(rng.randint(-5, 5)))
        lhs = t.derive(subst_theta(t, f, 1, one, c))
        rhs = subst_theta(t, t.derive(f), 1, one, c)
        assert (lhs - rhs).is_zero()


# ------------------------------------------------------------------- output


def test_dump_json():
    t, _ = build("exp(x^2)")
    assert t.dump_json() == {"base": "x", "monomials": [{"kind": "exp", "arg": "x^2"}]}


def test_to_expr_round_trip():
    t, f = build("(x*log(x) - x)/(log(x) + 1)")
    text = str(f)
    t2, f2 = build(text)
    # same tower shape and numerically identical
    assert t2.dump_json() == t.dump_json()
    for xv in (0.7, 1.3, 2.9):
        assert abs(t.eval_complex(f, xv) - t2.eval_complex(f2, xv)) < 1e-9


_WRONG_RELATION = """
import sys
from fractions import Fraction
import liouville.tower as tower
from liouville.cli import main
from liouville.syntax import parse

# every new exponential claimed to be the sum of the ones before it
tower._relation_solve = lambda t, basis, target: [Fraction(1)] * len(basis) or None
try:
    tower.build_tower(parse("exp(x) + exp(x^2)"))
except ArithmeticError:
    print("raised")
sys.exit(main(["exp(x) + exp(x^2)"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_wrong_relation_raises_under_optimize(flags):
    """The relation check is an explicit raise, not an assert, so it fires
    under python -O too, and the CLI maps it to exit 3."""
    src = str(Path(liouville.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *flags, "-c", _WRONG_RELATION],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.strip() == "raised", proc.stderr
    assert proc.returncode == 3
    assert "internal error: ArithmeticError" in proc.stderr
