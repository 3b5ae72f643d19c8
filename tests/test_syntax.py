"""Parser, pretty printer, and trig rewriting.

The trig rewrite is checked against numeric evaluation of the original
expression (cmath) at random complex points, and the tan rewrite against a
finite-difference derivative.
"""
import cmath
import random
from fractions import Fraction

import pytest

from liouville.algebra.gaussian import GaussRat, I_UNIT
from liouville.syntax import (
    Expr, Add, Sub, Mul, Div, Pow, Const, Var, Exp, Log,
    Sin, Cos, Tan, Cot, Arcsin, Arccos, Arctan, Arccot,
    ParseError, parse, pretty_print, rewrite_trig, contains_trig,
)


def C(n):
    return Const(GaussRat(n))


def eval_expr(e: Expr, env: dict[str, complex]) -> complex:
    """Numeric evaluation with principal branches; raises on missing vars."""
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Var):
        if e.name not in env:
            raise KeyError(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, Add):
        return eval_expr(e.left, env) + eval_expr(e.right, env)
    if isinstance(e, Sub):
        return eval_expr(e.left, env) - eval_expr(e.right, env)
    if isinstance(e, Mul):
        return eval_expr(e.left, env) * eval_expr(e.right, env)
    if isinstance(e, Div):
        return eval_expr(e.left, env) / eval_expr(e.right, env)
    if isinstance(e, Pow):
        return eval_expr(e.base, env) ** eval_expr(e.exponent, env)
    arg = eval_expr(e.arg, env)
    table = {
        Exp: cmath.exp,
        Log: cmath.log,
        Sin: cmath.sin,
        Cos: cmath.cos,
        Tan: cmath.tan,
        Cot: lambda z: cmath.cos(z) / cmath.sin(z),
        Arcsin: cmath.asin,
        Arccos: cmath.acos,
        Arctan: cmath.atan,
        Arccot: lambda z: cmath.atan(1 / z),
    }
    return table[type(e)](arg)


def test_parse_examples():
    assert parse("x + 2*x") == Add(Var("x"), Mul(C(2), Var("x")))
    assert parse("1/x^2") == Div(C(1), Pow(Var("x"), C(2)))
    assert parse("exp(x)") == Exp(Var("x"))
    assert parse("ln(x)") == Log(Var("x"))
    assert parse("i") == Const(I_UNIT)
    assert parse("-x") == Sub(C(0), Var("x"))
    assert parse("-2") == C(-2)
    assert parse("2 - 3") == Sub(C(2), C(3))
    assert parse("1.5") == Const(GaussRat(Fraction(3, 2)))


def test_parse_precedence():
    # ^ right-associative, tighter than unary minus, then * /, then + -
    assert parse("x^y^z") == Pow(Var("x"), Pow(Var("y"), Var("z")))
    assert parse("-x^2") == Sub(C(0), Pow(Var("x"), C(2)))
    assert parse("a - b - c") == Sub(Sub(Var("a"), Var("b")), Var("c"))
    assert parse("a/b/c") == Div(Div(Var("a"), Var("b")), Var("c"))
    assert parse("a + b*c") == Add(Var("a"), Mul(Var("b"), Var("c")))


def test_parse_errors_positioned():
    with pytest.raises(ParseError) as e:
        parse("log(")
    assert e.value.column == 5
    with pytest.raises(ParseError) as e:
        parse("x + ")
    assert e.value.column == 5
    with pytest.raises(ParseError) as e:
        parse("(x + 1")
    assert e.value.column == 7
    with pytest.raises(ParseError) as e:
        parse("x 1")
    assert e.value.column == 3
    with pytest.raises(ParseError) as e:
        parse("x + $")
    assert e.value.column == 5
    with pytest.raises(ParseError) as e:
        parse("1/0")
    assert e.value.column == 2
    with pytest.raises(ParseError) as e:
        parse("foo(x)")
    assert e.value.column == 1


def test_pretty_examples():
    assert pretty_print(Add(Var("x"), C(1))) == "x + 1"
    assert pretty_print(Pow(Var("x"), C(2))) == "x^2"
    assert pretty_print(Div(C(1), Add(Var("x"), C(1)))) == "1/(x + 1)"
    assert pretty_print(Sub(C(0), Pow(Var("x"), C(2)))) == "-x^2"
    assert pretty_print(Mul(Var("x"), Add(Var("y"), C(1)))) == "x*(y + 1)"


def _rand_expr(rng, depth):
    """Random AST over the grammar the printer guarantees to round-trip."""
    if depth == 0:
        k = rng.randrange(3)
        if k == 0:
            return C(rng.randint(0, 9))
        if k == 1:
            return Const(I_UNIT)
        return Var(rng.choice("xyz"))
    k = rng.randrange(8)
    a = _rand_expr(rng, depth - 1)
    b = _rand_expr(rng, depth - 1)
    if k == 0:
        return Add(a, b)
    if k == 1:
        return Sub(a, b)
    if k == 2:
        return Mul(a, b)
    if k == 3:
        if isinstance(b, Const) and b.value.is_zero():
            b = C(1)
        return Div(a, b)
    if k == 4:
        return Pow(a, C(rng.randint(0, 5)))
    if k == 5:
        return Exp(a)
    if k == 6:
        return Log(a)
    return Sub(C(0), Pow(a, C(2)))


def test_round_trip_random():
    rng = random.Random(101)
    for _ in range(1000):
        e = _rand_expr(rng, rng.randint(1, 4))
        assert parse(pretty_print(e)) == e


def test_rewrite_examples():
    i = I_UNIT
    out = rewrite_trig(Sin(Var("x")))
    ix = Mul(Const(i), Var("x"))
    expected = Div(
        Sub(Exp(ix), Exp(Sub(Const(GaussRat(0)), ix))),
        Const(i * 2),
    )
    assert out == expected
    # identity on trig-free input
    e = Exp(Var("x"))
    assert rewrite_trig(e) == e


def test_rewrite_removes_trig_and_preserves_values():
    rng = random.Random(103)
    cases = [
        Sin(Var("x")),
        Tan(Var("x")),
        Arctan(Var("x")),
        parse("cos(x)*sin(x) + cot(x)"),
        parse("arccot(x) + 2*sin(x)^2"),
        parse("arcsin(x)"),
        parse("arccos(x)"),
    ]
    for e in cases:
        out = rewrite_trig(e)
        assert not contains_trig(out)
        checked = 0
        while checked < 20:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) > 0.95:
                continue
            try:
                v0 = eval_expr(e, {"x": z})
                v1 = eval_expr(out, {"x": z})
            except (ZeroDivisionError, ValueError):
                continue
            if abs(v0) > 1e6:
                continue
            assert abs(v0 - v1) < 1e-9, (e, z, v0, v1)
            checked += 1


def test_tan_rewrite_derivative_oracle():
    # d/dx tan(x) at 0.3 equals sec(0.3)^2; finite difference on the rewrite
    out = rewrite_trig(Tan(Var("x")))
    h = 1e-6
    d = (eval_expr(out, {"x": 0.3 + h}) - eval_expr(out, {"x": 0.3 - h})) / (2 * h)
    expected = 1.0 / cmath.cos(0.3) ** 2
    assert abs(d - expected) < 1e-6
