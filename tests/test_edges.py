"""Edge cases: constant-argument monomials, unsupported inputs, trig
integrands end to end."""
import ast
import io
import json
import time
from pathlib import Path

import pytest

import liouville
from liouville.cli import RunConfig, run as cli_run
from liouville.errors import UnsupportedError
from liouville.syntax import parse
from liouville.tower import build_tower
from liouville.integrate import integrate, LiouvilleForm, NonElementary, form_derivative
from liouville.verify import numeric_check


def run(text):
    t, f = build_tower(parse(text))
    return t, f, integrate(t, f)


def run_cli(text):
    out = io.StringIO()
    code = cli_run(RunConfig(integrand=text, json_output=True), out=out)
    return code, out.getvalue()


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


def test_src_imports_are_pinned():
    """The modules src/ imports, outside the package, are exactly these: a new
    import is a deliberate edit of this list (it also moves start-up time),
    and the project keeps no runtime dependencies."""
    root = Path(liouville.__file__).resolve().parent
    imported = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported == {
        "__future__", "argparse", "cmath", "dataclasses", "fractions", "json",
        "math", "os", "sys", "time", "typing",
    }
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    assert "\ndependencies = []\n" in pyproject


def test_input_exponents_are_capped(monkeypatch):
    """x^n with non-constant base and |n| above LIOUVILLE_MAX_DEGREE is
    refused (exit 2) before any polynomial of degree n is built."""
    for text in ["x^(10^10)", "1/x^(10^10)", "log(x)^(-10^10)"]:
        started = time.perf_counter()
        code, out = run_cli(text)
        assert code == 2 and "LIOUVILLE_MAX_DEGREE" in out, (text, out)
        assert time.perf_counter() - started < 1.0, text
    assert run_cli("x^64")[0] == 0 and run_cli("x^65")[0] == 2
    assert run_cli("2^64*x")[0] == 0  # a constant base is not a degree
    # the internal bounds keep their cap where the input has no large exponent
    monkeypatch.setenv("LIOUVILLE_MAX_DEGREE", "3")
    code, out = run_cli("x*x*x*x*x*x*x*x*x*exp(x)")
    assert code == 2 and "Risch ODE degree bound" in out, out


def test_coefficients_beyond_float_range_leave_the_check_inconclusive():
    """exp(10^400*x) is integrated exactly; its argument has no float value, so
    every candidate interval is refused and the result is printed unchecked."""
    code, out = run_cli("exp(10^400*x)*10^400")
    payload = json.loads(out)
    assert code == 0 and payload["verification"] == {
        "symbolic_ok": True, "numeric": "inconclusive", "max_abs_error": None,
        "max_rel_error": None, "samples": []}
