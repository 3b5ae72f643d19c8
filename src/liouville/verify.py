"""Independent checking of integration results.

Two separate layers: exact symbolic re-differentiation (`verify_derivative`)
and a numeric-only check (`numeric_check`, which does not repeat the exact
one) comparing adaptive-Simpson quadrature of the integrand against endpoint
differences of the antiderivative, evaluated with principal branches.
Root-sum terms are evaluated numerically from the roots of their residue
polynomial. Monomials are evaluated once per point (`Tower.point`): once
per scan sample and once per endpoint, for every element evaluated there.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from .algebra.roots import durand_kerner
from .tower import Tower, TowerElem
from .integrate import LiouvilleForm, form_derivative

_PIECES = 4           # quadrature sub-intervals of the checked interval
_SCAN_STEPS = 512     # the scan samples lo + (hi - lo) * k / _SCAN_STEPS
_SIMPSON_TOL = 1e-9   # absolute tolerance of adaptive Simpson on one piece
_SIMPSON_DEPTH = 24   # recursion limit of adaptive Simpson


@dataclass(frozen=True)
class NumericSample:
    interval: tuple[float, float]
    quadrature: complex
    endpoint_difference: complex
    abs_error: float


@dataclass(frozen=True)
class VerificationReport:
    numeric_samples: tuple[NumericSample, ...]
    max_abs_error: float

    @property
    def numeric_ok(self) -> bool:
        return self.max_abs_error < 1e-6


class SingularIntervalError(ValueError):
    """The requested interval contains a pole, zero of a log argument, or a
    branch-cut crossing of some subterm."""

    def __init__(self, message: str, where: float):
        super().__init__(f"{message} near x = {where:.6g}")
        self.where = where


def verify_derivative(t: Tower, result: LiouvilleForm, f: TowerElem) -> bool:
    """Exact check: derive(r0) + sum(lambda * D(r)/r) + root sums == f."""
    return (form_derivative(t, result) - f).is_zero()


# ------------------------------------------------------------------ numerics


def _eval_form(t: Tower, form: LiouvilleForm, x: float) -> complex:
    pt = t.point(complex(x))
    val = t.eval_rep(form.r0.rep, form.r0.level, pt)
    for term in form.logs:
        arg = t.eval_rep(term.arg.rep, term.arg.level, pt)
        val += term.coeff.to_complex() * cmath.log(arg)
    for rs in form.root_sums:
        roots = durand_kerner([c.to_complex() for c in rs.poly.coeffs])
        coeffs = [t.eval_rep(rs.arg.coeff(k), rs.level, pt)
                  for k in range(rs.arg.degree(), -1, -1)]
        for root in roots:
            arg = 0j
            for coeff in coeffs:
                arg = arg * root + coeff
            val += root * cmath.log(arg)
    return val


def _base_level_polys(elem: TowerElem) -> list:
    """All level-0 numerator/denominator polynomials nested inside an
    element's representation (denominators of every coefficient at every
    level, plus level-0 numerators of the element itself)."""
    out = []

    def walk_rep(rep, level, with_num):
        if level == 0:
            if with_num:
                out.append(rep.num)
            out.append(rep.den)
            return
        for p in (rep.num, rep.den):
            for c in p.coeffs:
                walk_rep(c, level - 1, False)

    walk_rep(elem.rep, elem.level, False)
    return out


def _isolated_real_roots(p, lo: float, hi: float) -> list[float]:
    """Real roots of a base-level polynomial inside [lo, hi], found
    numerically (only used to reject intervals, never to certify)."""
    if p.degree() < 1:
        return []
    roots = durand_kerner([c.to_complex() for c in p.coeffs])
    return [
        r.real
        for r in roots
        if abs(r.imag) < 1e-7 and lo - 1e-9 <= r.real <= hi + 1e-9
    ]


def _scan_singularities(t: Tower, form: LiouvilleForm, f: TowerElem,
                        lo: float, hi: float):
    """Reject intervals containing detected singularities: base-level
    denominator roots are isolated numerically; everything else (monomial
    arguments, higher-level denominators, branch cuts) is sampled."""
    # (label, element, is_log_argument): poles are singular for everything;
    # zeros and branch-cut crossings matter only for log arguments
    watch: list[tuple[str, TowerElem, bool]] = [
        ("the integrand", f, False),
        ("the antiderivative", form.r0, False),
    ]
    for term in form.logs:
        watch.append((f"log argument {term.arg}", term.arg, True))
    for mono in t.monomials:
        if mono.kind == "log":
            watch.append((f"log argument {mono.arg}", mono.arg, True))
        else:
            watch.append((f"exp argument {mono.arg}", mono.arg, False))
    for label, elem, is_log_arg in watch:
        polys = _base_level_polys(elem)
        if is_log_arg and elem.level == 0:
            polys.append(elem.rep.num)
        for p in polys:
            hits = _isolated_real_roots(p, lo, hi)
            if hits:
                raise SingularIntervalError(f"zero or pole of {label}", hits[0])
    prev_args: dict[int, complex] = {}
    for k in range(_SCAN_STEPS + 1):
        x = lo + (hi - lo) * k / _SCAN_STEPS
        for idx, (label, elem, is_log_arg) in enumerate(watch):
            try:
                if not idx:  # a failure computing the point is the integrand's
                    pt = t.point(complex(x))
                v = t.eval_rep(elem.rep, elem.level, pt)
            except ZeroDivisionError:
                raise SingularIntervalError(f"pole of {label}", x)
            except (ValueError, OverflowError):  # log(0) or exp overflow inside
                raise SingularIntervalError(f"singular subterm of {label}", x)
            if not is_log_arg:
                continue
            if abs(v) < 1e-9:
                raise SingularIntervalError(f"zero of {label}", x)
            prev = prev_args.get(idx, v)
            prev_args[idx] = v
            # a real argument changing sign went through a zero or a pole
            real = abs(v.imag) + abs(prev.imag) <= 1e-12 * (abs(v) + abs(prev))
            if real and (v.real < 0) != (prev.real < 0):
                raise SingularIntervalError(f"zero crossing of {label}", x)
            if v.real < 0 and prev.real < 0 and (v.imag < 0) != (prev.imag < 0):
                raise SingularIntervalError(f"branch-cut crossing of {label}", x)


def _adaptive_simpson(fun, a: float, b: float) -> complex:
    fa, fb = fun(a), fun(b)
    m = 0.5 * (a + b)
    fm = fun(m)

    def simpson(l, r, fl, fm_, fr):
        return (r - l) / 6.0 * (fl + 4.0 * fm_ + fr)

    def recurse(l, r, fl, fm_, fr, whole, eps, d):
        mid = 0.5 * (l + r)
        lm, rm = 0.5 * (l + mid), 0.5 * (mid + r)
        flm, frm = fun(lm), fun(rm)
        left = simpson(l, mid, fl, flm, fm_)
        right = simpson(mid, r, fm_, frm, fr)
        if d <= 0 or abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(l, mid, fl, flm, fm_, left, eps / 2.0, d - 1) + recurse(
            mid, r, fm_, frm, fr, right, eps / 2.0, d - 1
        )

    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, _SIMPSON_TOL, _SIMPSON_DEPTH)


def numeric_check(t: Tower, result: LiouvilleForm, f: TowerElem,
                  interval: tuple[float, float]) -> VerificationReport:
    """Numeric only: quadrature of f over sub-intervals against endpoint
    differences of the antiderivative; flags absolute errors of 1e-6 or
    more. The exact check is `verify_derivative`, which this does not run."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    _scan_singularities(t, result, f, lo, hi)

    def integrand(x: float) -> complex:
        return t.eval_complex(f, complex(x))

    samples = []
    max_err = 0.0
    for k in range(_PIECES):
        a = lo + (hi - lo) * k / _PIECES
        b = lo + (hi - lo) * (k + 1) / _PIECES
        quad = _adaptive_simpson(integrand, a, b)
        diff = _eval_form(t, result, b) - _eval_form(t, result, a)
        err = abs(quad - diff)
        max_err = max(max_err, err)
        samples.append(NumericSample((a, b), quad, diff, err))
    return VerificationReport(numeric_samples=tuple(samples), max_abs_error=max_err)
