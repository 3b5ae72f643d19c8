"""Independent output check: the benchmark reads r0 and the log terms from
liouville's JSON with its own parser and compares a numeric derivative of
r0 + sum(lambda * log(arg)) with the integrand at a few sample points.

Results with root sums are left to liouville's exact check; the caller
reports how many results this check covered.
"""
from __future__ import annotations

import cmath

from expr import TextError, evaluate, parse_text

SAMPLE_POINTS = (0.41, 1.13, 1.87, 2.62, 3.31)
_TOL = 1e-6      # relative disagreement that counts as a wrong result
_STABLE = 1e-8   # relative agreement required between two step sizes


def _antiderivative(payload):
    r0 = parse_text(payload["r0"])
    logs = [(parse_text(t["lambda"]), parse_text(t["arg"])) for t in payload["logs"]]

    def value(x: complex) -> complex:
        v = evaluate(r0, x)
        for lam, arg in logs:
            v += evaluate(lam, x) * cmath.log(evaluate(arg, x))
        return v

    return value


def _richardson(F, x: float, h: float) -> complex:
    d1 = (F(x + h) - F(x - h)) / (2 * h)
    d2 = (F(x + h / 2) - F(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def _derivative(F, x: float):
    """Numeric F'(x), or None where two step sizes disagree: a pole, a
    branch cut or a steep rise close to x makes the stencil unreliable."""
    h = 1e-3 * max(1.0, abs(x))
    coarse, fine = _richardson(F, x, h), _richardson(F, x, h / 4)
    if abs(coarse - fine) > _STABLE * (1.0 + abs(fine)):
        return None
    return fine


def check_result(integrand, payload):
    """(True, "") when the derivative matches at two or more usable points,
    (False, detail) on a disagreement, (None, reason) when unchecked."""
    if payload.get("root_sums"):
        return None, "root sum"
    try:
        F = _antiderivative(payload)
    except TextError as exc:
        return None, f"unreadable output: {exc}"
    usable = 0
    for x in SAMPLE_POINTS:
        try:
            f = evaluate(integrand, complex(x))
            dF = _derivative(F, x)
        except (ZeroDivisionError, OverflowError, ValueError):
            continue
        if dF is None or not cmath.isfinite(f) or not cmath.isfinite(dF):
            continue
        if abs(dF - f) > _TOL * (1.0 + abs(f)):
            return False, f"at x={x}: d/dx result = {dF:.10g}, integrand = {f:.10g}"
        usable += 1
    if usable < 2:
        return None, "fewer than two usable sample points"
    return True, ""
