"""The benchmark's own tests: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import cmath
import json
import os
import re
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expr  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from check import _derivative, check_result  # noqa: E402
from runner import Result, run_case  # noqa: E402

WORKLOADS = ("roundtrip", "rational", "tower")
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_is_well_formed():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(names) == len(set(names)) and all(name.fullmatch(n) for n in names)
    assert all(unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= SPEC["run_seconds"] <= 60


def test_end_to_end_metrics_match_spec():
    case = workloads._case(expr.X, workloads.ELEMENTARY, "x")
    results = [Result(case, "ok", 0.01), Result(case, "timeout", 1.2)]
    metrics = run.end_to_end(results, 1.0, 0.05)
    assert {k: u for k, (v, u) in metrics.items()} == _declared("end_to_end")
    assert metrics["verdict_rate"][0] == 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = run.make_cases(workload, 7, 6)
    again = run.make_cases(workload, 7, 6)
    other = run.make_cases(workload, 8, 6)
    assert [c.text for c in first] == [c.text for c in again]
    assert run.inputs_hash(first) == run.inputs_hash(again)
    assert run.inputs_hash(first) != run.inputs_hash(other)


def _trees():
    rng = random.Random(3)
    for _ in range(400):
        yield workloads._random_tree(rng, 3)
    for make in workloads.TOWER_FAMILIES.values():
        for i in range(4):
            yield make(rng, i)


def test_derivative_matches_central_difference():
    """The generator's D(F) is the derivative of F, so a wrong verdict is
    the program's, never the generator's."""
    compared = 0
    for F in _trees():
        dF = expr.derive(F)
        for x in (0.43, 1.37, 2.71):
            try:
                exact = expr.evaluate(dF, complex(x))
                numeric = _derivative(lambda t: expr.evaluate(F, complex(t)), x)
            except (ZeroDivisionError, OverflowError, ValueError):
                continue
            if numeric is None or not cmath.isfinite(exact):
                continue
            assert abs(exact - numeric) <= 1e-6 * (1 + abs(exact)), (expr.to_text(F), x)
            compared += 1
    assert compared > 500


def test_printed_text_reads_back():
    rng = random.Random(5)
    for _ in range(200):
        F = workloads._random_tree(rng, 3)
        back = expr.parse_text(expr.to_text(F))
        for x in (0.43, 1.37):
            try:
                want = expr.evaluate(F, complex(x))
            except (ZeroDivisionError, OverflowError, ValueError):
                continue
            assert cmath.isclose(expr.evaluate(back, complex(x)), want, rel_tol=1e-9, abs_tol=1e-12)


def test_check_accepts_right_and_rejects_wrong_result():
    integrand = expr.div(expr.ONE, expr.add(expr.power(expr.X, 2), expr.ONE))
    right = {"r0": "0", "logs": [{"lambda": "i/2", "arg": "x + i"},
                                 {"lambda": "-i/2", "arg": "x - i"}]}
    assert check_result(integrand, right) == (True, "")
    wrong = {"r0": "x", "logs": right["logs"]}
    verdict, detail = check_result(integrand, wrong)
    assert verdict is False and "x=" in detail
    assert check_result(integrand, dict(right, root_sums=[{}]))[0] is None


def test_tracing_keeps_outcomes_and_counts_repeat():
    """Tracing changes no outcome, and the outcome and *.calls counts of a
    traced run repeat exactly, including an input the timer interrupts."""
    from tracing import Tracer

    cli = run.import_liouville()
    cases = run.make_cases("roundtrip", 11, 1)[:25] + [
        c for c in run.make_cases("tower", 11, 1)
        if c.family in ("exp_pole", "exp_exp_poly", "erf", "log_log_log")
    ] + [c for c in run.make_cases("rational", 11, 1) if c.family == "rootsum"]
    untraced = [r.outcome for r in run.run_pass(cli, cases, 0.5, check=False)]

    def traced_counts():
        tracer = Tracer()
        tracer.install()
        try:
            results = run.run_pass(cli, cases, 0.5, check=False, tracer=tracer)
        finally:
            tracer.uninstall()
        assert [r.outcome for r in results] == untraced
        metrics = run.per_layer(results, results, tracer, 0.0)
        assert {k: u for k, (v, u) in metrics.items()} == _declared("per_layer")
        return {k: v for k, (v, unit) in metrics.items() if unit == "count"}

    first, again = traced_counts(), traced_counts()
    assert first == again
    assert first["outcome.timeout"] >= 1 and first["tower.derive.calls"] > 0


def test_timer_interrupts_one_input_only():
    cli = run.import_liouville()
    slow = workloads._derivative_case(workloads._tower_exp_exp(random.Random(1), 0), "exp_exp_poly")
    fast = workloads._case(expr.div(expr.ONE, expr.X), workloads.ELEMENTARY, "one_over_x")
    assert run_case(cli, slow, 0.2).outcome == "timeout"
    result = run_case(cli, fast, 5.0)
    assert result.outcome == "ok" and result.checked
