"""Exact root extraction over Q(i) for constant polynomials.

Strategy: find candidate roots numerically (Durand-Kerner in plain complex
arithmetic), reconstruct nearby Gaussian rationals, and keep only candidates
that verify exactly. Verified roots are deflated exactly, so the result is
sound regardless of floating point behavior; at worst a root with an enormous
denominator is left inside the unresolved factor.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .gaussian import GaussRat
from .poly import Poly, poly_divmod

_DEN_BOUNDS = (16, 1000, 10**6, 10**12)


def sqrt_fraction(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def gauss_sqrt(z: GaussRat) -> GaussRat | None:
    """Exact square root of z in Q(i), or None when z is not a square."""
    if z.is_zero():
        return GaussRat(0)
    if not z.im:
        a = z.re
        if a > 0:
            r = sqrt_fraction(a)
            return GaussRat(r) if r is not None else None
        r = sqrt_fraction(-a)
        return GaussRat(0, r) if r is not None else None
    s = sqrt_fraction(z.norm())
    if s is None:
        return None
    u2 = (z.re + s) / 2
    u = sqrt_fraction(u2)
    if u is None or u == 0:
        return None
    v = z.im / (2 * u)
    w = GaussRat(u, v)
    return w if w * w == z else None


def durand_kerner(coeffs: list[complex], iters: int = 400) -> list[complex]:
    """Approximate all roots of the monic polynomial with given dense
    complex coefficients (index = degree, leading coefficient 1).
    """
    n = len(coeffs) - 1
    if n <= 0:
        return []

    def ev(z: complex) -> complex:
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * z + c
        return acc

    zs = [complex(0.4, 0.9) ** k for k in range(1, n + 1)]
    for _ in range(iters):
        moved = 0.0
        for i in range(n):
            d = complex(1)
            for j in range(n):
                if j != i:
                    d *= zs[i] - zs[j]
            if d == 0:
                zs[i] += complex(1e-4, 2e-4)
                continue
            step = ev(zs[i]) / d
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return zs


def _candidates(x: float):
    for bound in _DEN_BOUNDS:
        yield Fraction(x).limit_denominator(bound)


def gauss_rational_roots(s: Poly) -> tuple[list[GaussRat], Poly]:
    """All roots of s lying in Q(i), with exact deflation.

    Returns (roots, remaining) where remaining has no Q(i) roots that the
    reconstruction found; every returned root satisfies s(root) = 0 exactly.
    """
    s = s.monic()
    roots: list[GaussRat] = []
    progressed = True
    while progressed and s.degree() > 0:
        progressed = False
        if s.degree() == 1:
            roots.append(-s.coeff(0))
            s = Poly.const(s.field, s.field.one(), s.var)
            break
        approx = durand_kerner([c.to_complex() for c in s.coeffs])
        seen = set()
        for z in approx:
            found = None
            for re_c in _candidates(z.real):
                for im_c in _candidates(z.imag):
                    cand = GaussRat(re_c, im_c)
                    if cand in seen:
                        continue
                    if abs(cand.to_complex() - z) > 1e-4:
                        continue
                    if s.eval(cand).is_zero():
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None and found not in roots:
                seen.add(found)
                roots.append(found)
                lin = Poly(s.field, [-found, s.field.one()], s.var)
                q, r = poly_divmod(s, lin)
                if not r.is_zero():
                    raise ArithmeticError(f"rational root {found} leaves remainder {r}")
                s = q
                progressed = True
                break
    return roots, s
