"""Independent checking of integration results.

Two separate layers: exact symbolic re-differentiation (`verify_derivative`)
and a numeric-only check (`numeric_check`, which does not repeat the exact
one). The singularity scan evaluates the integrand at 513 samples, and each
piece's quadrature is Richardson-corrected composite Simpson on those values.
It must match the endpoint difference of the antiderivative (principal
branches; root sums from their residue polynomial's roots, found once per
check) relative to max(1, integral of |f|); a Simpson error estimate above
that tolerance makes the interval inconclusive, neither passed nor failed.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

from .algebra.roots import durand_kerner
from .tower import Tower, TowerElem
from .integrate import LiouvilleForm, form_derivative

_PIECES = 4           # quadrature sub-intervals of the checked interval
_SCAN_STEPS = 512     # the scan samples lo + (hi - lo) * k / _SCAN_STEPS
_TOL = 1e-6           # relative tolerance against max(1, integral of |f|)


@dataclass(frozen=True)
class NumericSample:
    interval: tuple[float, float]
    quadrature: complex
    endpoint_difference: complex
    abs_error: float
    rel_error: float      # abs_error / max(1, integral of |f| on the piece)


@dataclass(frozen=True)
class VerificationReport:
    numeric_samples: tuple[NumericSample, ...] = ()  # empty: nothing checked
    max_abs_error: float | None = None
    max_rel_error: float | None = None
    conclusive: bool = False

    @property
    def numeric_ok(self) -> bool:
        return self.conclusive and self.max_rel_error < _TOL


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


def _eval_form(t: Tower, form: LiouvilleForm, xs: list[float]) -> list[complex]:
    """The form's values at the points xs; the roots of each residue
    polynomial are found once."""
    roots = [durand_kerner([c.to_complex() for c in rs.poly.coeffs])
             for rs in form.root_sums]
    out = []
    for x in xs:
        pt = t.point(complex(x))
        val = t.eval_rep(form.r0.rep, form.r0.level, pt)
        for term in form.logs:
            arg = t.eval_rep(term.arg.rep, term.arg.level, pt)
            val += term.coeff.to_complex() * cmath.log(arg)
        for rs, rs_roots in zip(form.root_sums, roots):
            coeffs = [t.eval_rep(rs.arg.coeff(k), rs.level, pt)
                      for k in range(rs.arg.degree(), -1, -1)]
            for root in rs_roots:
                arg = 0j
                for coeff in coeffs:
                    arg = arg * root + coeff
                val += root * cmath.log(arg)
        out.append(val)
    return out


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
                        lo: float, hi: float) -> list[complex]:
    """Reject intervals containing detected singularities: base-level
    denominator roots are isolated numerically; everything else (monomial
    arguments, higher-level denominators, branch cuts) is sampled. Returns
    the integrand's values at the samples."""
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
    values = []
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
            if not idx:
                values.append(v)
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
    return values


def _simpson(ys: list[complex], h: float) -> complex:
    """Composite Simpson on values at spacing h over an even number of cells."""
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * sum(ys[1:-1:2]) + 2.0 * sum(ys[2:-1:2]))


def numeric_check(t: Tower, result: LiouvilleForm, f: TowerElem,
                  interval: tuple[float, float]) -> VerificationReport:
    """Numeric only: on each of `_PIECES` pieces, quadrature of f from the
    scan's samples against the endpoint difference of the antiderivative.
    A piece passes when they agree to `_TOL` relative to max(1, integral of
    |f|); it is inconclusive when Simpson's error estimate exceeds that. The
    exact check is `verify_derivative`, which this does not run."""
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must satisfy lo < hi")
    values = _scan_singularities(t, result, f, lo, hi)
    cells, h = _SCAN_STEPS // _PIECES, (hi - lo) / _SCAN_STEPS
    bounds = [lo + (hi - lo) * k / _PIECES for k in range(_PIECES + 1)]
    forms = _eval_form(t, result, bounds)
    samples, conclusive = [], True
    for k in range(_PIECES):
        ys = values[k * cells:(k + 1) * cells + 1]
        fine, coarse = _simpson(ys, h), _simpson(ys[::2], 2.0 * h)
        quad = fine + (fine - coarse) / 15.0
        scale = max(1.0, _simpson([abs(y) for y in ys], h))
        conclusive = conclusive and abs(fine - coarse) / 15.0 <= _TOL * scale
        diff = forms[k + 1] - forms[k]
        err = abs(quad - diff)
        samples.append(NumericSample((bounds[k], bounds[k + 1]), quad, diff, err, err / scale))
    return VerificationReport(tuple(samples), max(s.abs_error for s in samples),
                              max(s.rel_error for s in samples), conclusive)
