"""Verification layer: exact re-differentiation and quadrature spot checks."""
import io
import json
import math

import pytest

from liouville.syntax import parse
from liouville.tower import build_tower
from liouville.integrate import integrate, LiouvilleForm
from liouville.cli import RunConfig, run as cli_run
from liouville.verify import (
    verify_derivative, numeric_check, SingularIntervalError, _adaptive_simpson,
)


def run(text):
    t, f = build_tower(parse(text))
    res = integrate(t, f)
    assert isinstance(res, LiouvilleForm)
    return t, f, res


def run_cli(text):
    out = io.StringIO()
    code = cli_run(RunConfig(integrand=text, json_output=True), out=out)
    return code, out.getvalue()


def test_verify_derivative_examples():
    # x log x - x vs log x
    t, f, res = run("log(x)")
    assert verify_derivative(t, res, f)
    # (0, [(1, x)]) vs 1/x
    t, f, res = run("1/x")
    assert verify_derivative(t, res, f)
    # wrong antiderivative: x vs log x
    t, f = build_tower(parse("log(x)"))
    wrong = LiouvilleForm(t.x())
    assert not verify_derivative(t, wrong, f)


def test_adaptive_simpson_ln2():
    val = _adaptive_simpson(lambda x: 1.0 / x, 1.0, 2.0)
    assert abs(val - math.log(2)) < 1e-9


def test_numeric_check_examples():
    t, f, res = run("1/x")
    assert verify_derivative(t, res, f)
    rep = numeric_check(t, res, f, (1.0, 2.0))
    assert rep.numeric_ok
    assert abs(rep.numeric_samples[0].quadrature) > 0

    t, f, res = run("x*exp(x)")
    assert verify_derivative(t, res, f)
    rep = numeric_check(t, res, f, (0.0, 1.0))
    assert rep.max_abs_error < 1e-6

    t, f, res = run("1/(x^2-1)")
    with pytest.raises(SingularIntervalError) as e:
        numeric_check(t, res, f, (0.0, 2.0))
    assert abs(e.value.where - 1.0) < 0.01


def test_numeric_check_complex_logs():
    # antiderivative with lambda = +-i/4 stays real on the real axis
    t, f, res = run("1/(x^2+1)^2")
    assert verify_derivative(t, res, f)
    rep = numeric_check(t, res, f, (0.0, 1.0))
    assert rep.numeric_ok


def test_numeric_check_root_sums():
    t, f, res = run("1/(x^3-2)")
    assert res.root_sums
    assert verify_derivative(t, res, f)
    rep = numeric_check(t, res, f, (2.0, 3.0))
    assert rep.numeric_ok


def test_numeric_matches_symbolic_on_corpus():
    cases = [
        ("1/x", (1.0, 2.0)),
        ("2*x/(x^2+1)", (0.0, 1.0)),
        ("1/(x^2-1)", (2.0, 3.0)),
        ("log(x)", (1.0, 2.0)),
        ("1/(x*log(x))", (2.0, 3.0)),
        ("log(x)/x", (1.0, 2.0)),
        ("x*exp(x)", (0.0, 1.0)),
    ]
    for text, interval in cases:
        t, f, res = run(text)
        assert verify_derivative(t, res, f), text
        rep = numeric_check(t, res, f, interval)
        assert rep.numeric_ok, (text, rep.max_abs_error)


def test_scan_rejects_log_of_zero_inside_a_subterm():
    # at x = 1 the tower evaluates log(log(1)) = log(0): a rejected interval,
    # not a ValueError escaping the check
    t, f, res = run("1/(x*log(x)*log(log(x)))")
    with pytest.raises(SingularIntervalError) as e:
        numeric_check(t, res, f, (1.0, 2.0))
    assert abs(e.value.where - 1.0) < 1e-9


def test_scan_rejects_real_log_argument_changing_sign():
    # the log argument log(log(x)) is real on (2, 3) and crosses zero at
    # x = e, between two samples
    t, f, res = run("1/(x*log(x)*log(log(x)))")
    with pytest.raises(SingularIntervalError) as e:
        numeric_check(t, res, f, (2.0, 3.0))
    assert "zero crossing" in str(e.value)
    assert abs(e.value.where - math.e) < 0.01


def test_cli_checks_log_log_log_on_a_regular_interval():
    code, out = run_cli("1/(x*log(x)*log(log(x)))")
    assert code == 0, out
    payload = json.loads(out)
    assert payload["logs"] == [{"lambda": "1", "arg": "log(log(x))"}]
    assert payload["verification"]["samples"][0]["interval"][0] == 0.25
    assert payload["verification"]["max_abs_error"] < 1e-6
