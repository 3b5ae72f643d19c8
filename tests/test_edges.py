"""Edge cases: constant-argument monomials, unsupported inputs, trig
integrands end to end."""
import ast
from pathlib import Path

import pytest

import liouville
from liouville.errors import UnsupportedError
from liouville.syntax import parse
from liouville.tower import build_tower
from liouville.integrate import integrate, LiouvilleForm, NonElementary, form_derivative
from liouville.verify import numeric_check


def run(text):
    t, f = build_tower(parse(text))
    return t, f, integrate(t, f)


def assert_ok(text, interval=None):
    t, f, res = run(text)
    assert isinstance(res, LiouvilleForm), (text, res)
    assert (form_derivative(t, res) - f).is_zero(), text
    if interval:
        rep = numeric_check(t, res, f, interval)
        assert rep.numeric_ok, (text, rep.max_abs_error)
    return t, f, res


def test_constant_log_integrates():
    # log(2) acts as a formal constant: integral is log(2)*x
    t, f, res = assert_ok("log(2)", (1.0, 2.0))
    assert not res.logs


def test_constant_exp_integrates():
    assert_ok("exp(2)*x", (0.0, 1.0))


def test_constant_log_times_function():
    assert_ok("log(2)*log(x)", (1.0, 2.0))


def test_constant_log_coefficient_rejected():
    # log(2)/x would need the transcendental constant as a log coefficient
    t, f = build_tower(parse("log(2)/x"))
    with pytest.raises(UnsupportedError):
        integrate(t, f)


def test_arcsin_rejected_as_algebraic():
    with pytest.raises(UnsupportedError, match="algebraic"):
        build_tower(parse("arcsin(x)"))


def test_trig_end_to_end():
    assert_ok("sin(x)", (0.25, 1.0))
    assert_ok("cos(x)", (0.25, 1.0))
    assert_ok("sin(x)*cos(x)", (0.25, 1.0))
    t, f, res = assert_ok("tan(x)", (0.25, 1.0))


def test_arctan_integrand():
    # x*arctan-free result with complex logs; numeric check on real axis
    assert_ok("arctan(x)", (0.0, 1.0))


def test_exp_denominator():
    t, f, res = assert_ok("1/(1+exp(x))", (0.0, 1.0))
    assert len(res.logs) == 1


def test_power_with_variable_exponent():
    # x^x = exp(x log x): its derivative pattern integrates back
    assert_ok("x^x*(log(x)+1)", (1.0, 2.0))


def test_nested_exp_certificate():
    t, f, res = run("exp(exp(x))")
    assert isinstance(res, NonElementary)
    assert res.certificate.kind == "risch_ode_unsolvable"


def test_deep_tower():
    # three levels: log over exp over base
    assert_ok("log(exp(x) + 1)/(exp(x) + 1)*exp(x)", (0.0, 1.0))


def test_exp_laurent_part():
    # negative powers of the exponential
    assert_ok("exp(-x)*x", (0.0, 1.0))
    assert_ok("(exp(x) + 1)^2/exp(x)", (0.0, 1.0))


def test_mixed_sum_of_levels():
    assert_ok("1/x + log(x) + x*exp(x) + 1/(x*log(x))", (2.0, 3.0))


def test_no_assert_in_src():
    """Invariants are explicit raises, so they still fire under python -O."""
    root = Path(liouville.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
