"""Verification layer: exact re-differentiation and quadrature spot checks."""
import io
import json
import math
import os
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from liouville import cli as cli_mod, verify
from liouville.algebra.gaussian import GaussRat
from liouville.syntax import parse
from liouville.tower import build_tower
from liouville.integrate import integrate, LiouvilleForm, LogTerm
from liouville.cli import RunConfig, run as cli_run, _DEFAULT_INTERVALS
from liouville.verify import verify_derivative, numeric_check, SingularIntervalError

from test_integrate import rational_shapes


def run(text):
    t, f = build_tower(parse(text))
    res = integrate(t, f)
    assert isinstance(res, LiouvilleForm)
    return t, f, res


def run_cli(text, json_output=True, interval=None):
    out = io.StringIO()
    config = RunConfig(integrand=text, json_output=json_output, interval=interval)
    code = cli_run(config, out=out)
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


def test_piece_quadratures_sum_to_ln2():
    t, f, res = run("1/x")
    rep = numeric_check(t, res, f, (1.0, 2.0))
    assert len(rep.numeric_samples) == 4
    assert abs(sum(s.quadrature for s in rep.numeric_samples) - math.log(2)) < 1e-9


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


def test_numeric_check_costs_one_scan_and_five_form_points(monkeypatch):
    # 513 scan samples, the form at the 5 piece boundaries, and the roots of
    # the residue polynomial found once, whatever the integrand
    t, f, res = run("1/(x^3-2)")
    points, roots = [], []
    point, durand_kerner = t.point, verify.durand_kerner
    monkeypatch.setattr(t, "point", lambda x: points.append(x) or point(x))
    monkeypatch.setattr(verify, "durand_kerner", lambda c: roots.append(c) or durand_kerner(c))
    assert numeric_check(t, res, f, (2.0, 3.0)).numeric_ok
    assert len(points) == 513 + 5
    residue = [c.to_complex() for c in res.root_sums[0].poly.coeffs]
    assert roots.count(residue) == 1


def test_exact_to_float_conversions_do_not_scale_with_the_scan(monkeypatch):
    # every checked element is converted to its float image once per check,
    # so halving the scan leaves the number of conversions unchanged
    to_complex = GaussRat.to_complex
    for text, interval in [("exp(x)*log(x) + exp(x)/x", (1.0, 2.0)),
                           ("1/(x^3-2)", (2.0, 3.0)),
                           ("2*x/(x^2+1) + log(x)/x", (1.0, 2.0))]:
        t, f, res = run(text)
        counts = []
        for steps in (256, 512):
            calls = [0]

            def counted(z):
                calls[0] += 1
                return to_complex(z)

            monkeypatch.setattr(verify, "_SCAN_STEPS", steps)
            monkeypatch.setattr(GaussRat, "to_complex", counted)
            assert numeric_check(t, res, f, interval).numeric_ok, text
            monkeypatch.setattr(GaussRat, "to_complex", to_complex)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0, (text, counts)


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


def test_tan_is_checked_on_an_interval_without_a_pole():
    # (1, 2) holds the pole pi/2, which no scan sample hits
    code, out = run_cli("tan(x)")
    assert code == 0, out
    verification = json.loads(out)["verification"]
    assert verification["numeric"] == "passed"
    assert verification["samples"][0]["interval"] == [2.0, 2.25]
    assert verification["max_rel_error"] < 1e-6


def test_pole_between_samples_is_inconclusive():
    code, out = run_cli("tan(x)", json_output=False, interval=(1.0, 2.0))
    assert code == 0
    assert out.splitlines()[-1] == "  numeric check inconclusive"
    code, out = run_cli("tan(x)", interval=(1.0, 2.0))
    assert code == 0
    assert json.loads(out)["verification"]["numeric"] == "inconclusive"
    t, f, res = run("tan(x)^3")
    assert not numeric_check(t, res, f, (1.0, 2.0)).numeric_ok


def test_huge_integral_passes_on_relative_error():
    # the integral on (1, 2) is about 5e11: an absolute 1e-6 cannot be met
    started = time.perf_counter()
    code, out = run_cli("exp((x + 1)^2*(3*1))*(2*(x + 1)*(3*1))")
    assert time.perf_counter() - started < 1.0
    assert code == 0, out
    verification = json.loads(out)["verification"]
    assert verification["samples"][0]["interval"] == [1.0, 1.25]
    assert verification["max_rel_error"] < 1e-6 < verification["max_abs_error"]


def test_pole_above_level_0_is_not_accepted():
    # r0 = x^2/log(log(x)) has a pole at x = e, between two samples of (2, 3)
    text = "(2*(2*x - x)*log(log(x)) - (2*x - x)^2*(1/x/log(x)))/log(log(x))^2"
    started = time.perf_counter()
    code, out = run_cli(text)
    assert time.perf_counter() - started < 1.0
    assert code == 0, out
    t, f, res = run(text)
    assert not numeric_check(t, res, f, (2.0, 3.0)).numeric_ok


def test_every_interval_singular_is_reported_inconclusive(monkeypatch):
    monkeypatch.setattr(cli_mod, "_DEFAULT_INTERVALS", [(0.0, 2.0)])
    code, out = run_cli("1/(x^2-1)")
    assert code == 0
    verification = json.loads(out)["verification"]
    assert verification["numeric"] == "inconclusive"
    assert verification["samples"] == [] and verification["max_rel_error"] is None


def test_singular_explicit_interval_exits_2():
    code, out = run_cli("1/(x^2-1)", json_output=False, interval=(0.0, 2.0))
    assert code == 2
    assert out.startswith("interval error: zero or pole")


def test_numeric_failure_reports_the_relative_error(monkeypatch):
    def wrong(t, res, f, interval):
        return numeric_check(t, replace(res, r0=res.r0 + t.x()), f, interval)

    monkeypatch.setattr(cli_mod, "numeric_check", wrong)
    code, out = run_cli("1/x")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "verification_failure"
    assert payload["max_rel_error"] > 0.2 and payload["max_abs_error"] > 0.2


# ------------------------------------------------------------ mutation guard

# integrands whose numeric check once went wrong: a pole above level 0 between
# two samples (tan(x), tan(x)^3, x^2/log(log(x)) at x = e) and an integral
# near 5e11 on (1, 2)
REGRESSION_INPUTS = [
    "tan(x)",
    "tan(x)^3",
    "exp((x + 1)^2*(3*1))*(2*(x + 1)*(3*1))",
    "(2*(2*x - x)*log(log(x)) - (2*x - x)^2*(1/x/log(x)))/log(log(x))^2",
]


def _piece_scales(t, f, bounds):
    """max(1, integral of |f|) on each piece, by a 256-point midpoint rule."""
    out = []
    for a, b in zip(bounds, bounds[1:]):
        h = (b - a) / 256
        total = h * sum(abs(t.eval_complex(f, complex(a + (j + 0.5) * h)))
                        for j in range(256))
        out.append(max(1.0, total))
    return out


def _effect(t, form, mutant, bounds, scales):
    """The largest move of a piece's endpoint difference, relative to the
    piece's scale."""
    old, new = verify._eval_form(t, form, bounds), verify._eval_form(t, mutant, bounds)
    return max(abs((new[k + 1] - new[k]) - (old[k + 1] - old[k])) / scales[k]
               for k in range(len(scales)))


def mutants(t, form, f, interval):
    """(label, mutant) pairs of an elementary result: c*x added to r0, each
    log coefficient moved by c, each root-sum term dropped. The sizes c are
    chosen so that some piece's endpoint difference moves by 1e-2 of its
    scale; a dropped root sum that moves no piece by 1e-3 is left out."""
    lo, hi = interval
    bounds = [lo + (hi - lo) * k / verify._PIECES for k in range(verify._PIECES + 1)]
    scales = _piece_scales(t, f, bounds)

    def add_to_r0(c):
        return replace(form, r0=form.r0 + t.x() * t.const(GaussRat(c)))

    def move_log(i):
        def make(c):
            term = LogTerm(form.logs[i].coeff + GaussRat(c), form.logs[i].arg)
            return replace(form, logs=form.logs[:i] + (term,) + form.logs[i + 1:])
        return make

    sized = [("c*x added to r0", add_to_r0)]
    sized += [(f"log coefficient {i} moved", move_log(i)) for i in range(len(form.logs))]
    out = []
    for label, make in sized:
        unit = _effect(t, form, make(1), bounds, scales)
        if unit > 1e-12:
            mutant = make(Fraction(1e-2 / unit))
            assert _effect(t, form, mutant, bounds, scales) >= 1e-3, label
            out.append((label, mutant))
    for i in range(len(form.root_sums)):
        mutant = replace(form, root_sums=form.root_sums[:i] + form.root_sums[i + 1:])
        if _effect(t, form, mutant, bounds, scales) >= 1e-3:
            out.append((f"root sum {i} dropped", mutant))
    return out


def accepted_interval(t, f, form):
    """The first default interval on which the numeric check accepts the
    result, or None."""
    for cand in _DEFAULT_INTERVALS:
        try:
            if numeric_check(t, form, f, cand).numeric_ok:
                return cand
        except (SingularIntervalError, OverflowError, ZeroDivisionError):
            continue
    return None


def mutation_inputs():
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "basic.txt")
    with open(corpus, encoding="utf-8") as fh:
        entries = [line.split(";") for line in fh if ";" in line and not line.startswith("#")]
    texts = [text.strip() for text, verdict, *_ in entries if verdict.strip() == "elementary"]
    return [build_tower(parse(text)) for text in texts + REGRESSION_INPUTS] + rational_shapes()


def test_numeric_check_accepts_no_mutant():
    """A check that accepted a wrong antiderivative would be vacuous: every
    mutant that moves some piece by at least 1e-3 of its scale is rejected
    or inconclusive, never accepted."""
    counts = {"inputs": 0, "mutants": 0, "root sums dropped": 0}
    for t, f in mutation_inputs():
        form = integrate(t, f)
        assert isinstance(form, LiouvilleForm), str(f)
        interval = accepted_interval(t, f, form)
        assert interval is not None, str(f)
        counts["inputs"] += 1
        for label, mutant in mutants(t, form, f, interval):
            counts["mutants"] += 1
            counts["root sums dropped"] += label.startswith("root sum")
            try:
                report = numeric_check(t, mutant, f, interval)
            except SingularIntervalError:
                continue
            assert not report.numeric_ok, (str(f), label, interval)
    assert counts["inputs"] == 27, counts
    assert counts["mutants"] >= 45 and counts["root sums dropped"] >= 6, counts
