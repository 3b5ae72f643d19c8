"""Dense univariate polynomials over an abstract coefficient field.

A coefficient field is any descriptor with zero()/one()/from_int(n) whose
elements support +, -, *, /, ==, and is_zero(). The bottom field is Q(i)
(see gaussian.QI); higher levels use rational-function fields, so the same
code runs at every floor of a tower.
"""
from __future__ import annotations

from typing import Iterable


class Poly:
    """Coefficient list indexed by degree; the zero polynomial is empty."""

    __slots__ = ("field", "var", "coeffs")

    def __init__(self, field, coeffs: Iterable, var: str = "x"):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, field, c, var: str = "x") -> "Poly":
        return cls(field, [c], var)

    @classmethod
    def ints(cls, field, ints: Iterable[int], var: str = "x") -> "Poly":
        return cls(field, [field.from_int(n) for n in ints], var)

    @classmethod
    def gen(cls, field, var: str = "x") -> "Poly":
        return cls(field, [field.zero(), field.one()], var)

    def _wrap(self, coeffs) -> "Poly":
        return Poly(self.field, coeffs, self.var)

    # -- basic queries -------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and (self.coeffs[0] - self.field.one()).is_zero()

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    def lc(self):
        if not self.coeffs:
            return self.field.zero()
        return self.coeffs[-1]

    def coeff(self, j: int):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return self.field.zero()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return self._wrap(out)

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        out = []
        for j in range(n):
            x = self.coeffs[j] if j < len(self.coeffs) else z
            y = other.coeffs[j] if j < len(other.coeffs) else z
            out.append(x - y)
        return self._wrap(out)

    def __neg__(self) -> "Poly":
        return self._wrap([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return self._wrap([])
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return self._wrap(out)

    def scale(self, c) -> "Poly":
        if c.is_zero():
            return self._wrap([])
        return self._wrap([a * c for a in self.coeffs])

    def scale_div(self, c) -> "Poly":
        return self._wrap([a / c for a in self.coeffs])

    def shift_up(self, k: int) -> "Poly":
        """Multiply by var^k."""
        if self.is_zero():
            return self
        z = self.field.zero()
        return self._wrap([z] * k + list(self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(self.field, self.field.one(), self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        c = self.lc()
        if (c - self.field.one()).is_zero():
            return self
        return self.scale_div(c)

    def derivative(self) -> "Poly":
        """Formal d/dvar, treating coefficients as constants."""
        f = self.field
        return self._wrap(
            [c * f.from_int(j) for j, c in enumerate(self.coeffs) if j > 0]
        )

    def eval(self, x):
        """Horner evaluation; x may be any ring element compatible with coeffs."""
        if not self.coeffs:
            return self.field.zero()
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, field=None, var=None) -> "Poly":
        return Poly(field or self.field, [fn(c) for c in self.coeffs], var or self.var)

    # -- comparison / rendering ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            cs = str(c)
            if j == 0:
                term = cs
            else:
                v = self.var if j == 1 else f"{self.var}^{j}"
                if cs == "1":
                    term = v
                elif cs == "-1":
                    term = f"-{v}"
                elif any(op in cs[1:] for op in "+-/ "):
                    term = f"({cs})*{v}"
                else:
                    term = f"{cs}*{v}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Poly[{self.var}]({self})"


# -- division -------------------------------------------------------------


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; exact field division, and
    none at all when b is monic, so it also serves coefficient rings."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree() < b.degree():
        return a._wrap([]), a
    f = a.field
    z = f.zero()
    rem = list(a.coeffs)
    db = b.degree()
    blc = b.lc()
    monic = (blc - f.one()).is_zero()
    q = [z] * (len(rem) - db)
    for k in range(len(rem) - db - 1, -1, -1):
        c = rem[k + db]
        if c.is_zero():
            continue
        t = c if monic else c / blc
        q[k] = t
        for j, bc in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - t * bc
    return a._wrap(q), a._wrap(rem[:db])


def poly_mod(a: Poly, b: Poly) -> Poly:
    return poly_divmod(a, b)[1]


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


# -- gcd and resultant via the subresultant PRS -----------------------------


def _pseudo_rem(a: Poly, b: Poly) -> Poly:
    """prem(a, b) = rem(lc(b)^(deg a - deg b + 1) * a, b)."""
    delta = a.degree() - b.degree()
    lead = a.field.one()
    for _ in range(delta + 1):
        lead = lead * b.lc()
    return poly_mod(a.scale(lead), b)


def _field_pow(c, n: int, field):
    """c^n for possibly negative n, in the coefficient field."""
    if n < 0:
        return field.one() / _field_pow(c, -n, field)
    out = field.one()
    for _ in range(n):
        out = out * c
    return out


def _subresultant_prs(a: Poly, b: Poly) -> tuple[Poly, object]:
    """Return (gcd-candidate, resultant) of nonzero a, b via the
    subresultant polynomial remainder sequence.

    The gcd candidate is the last nonzero member of the sequence (not yet
    monic); the resultant is an element of the coefficient field.
    """
    f = a.field
    sign = 1
    if a.degree() < b.degree():
        if (a.degree() * b.degree()) % 2 == 1:
            sign = -sign
        a, b = b, a
    if b.degree() == 0:
        # res(a, c) = c^deg(a); gcd is trivial unless a is also constant
        res = _field_pow(b.lc(), a.degree(), f)
        return b, (res if sign == 1 else -res)
    g = f.one()
    h = f.one()
    while True:
        da, db = a.degree(), b.degree()
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        r = _pseudo_rem(a, b)
        if r.is_zero():
            # nontrivial common factor: resultant vanishes
            return b, f.zero()
        divisor = g * _field_pow(h, delta, f)
        a, b = b, r.scale_div(divisor)
        g = a.lc()
        h = _field_pow(h, 1 - delta, f) * _field_pow(g, delta, f)
        if b.degree() == 0:
            break
    # final normalization: deg b == 0, a is the last member of positive degree
    da = a.degree()
    res = _field_pow(h, 1 - da, f) * _field_pow(b.lc(), da, f)
    return b, (res if sign == 1 else -res)


def _is_ratfunc_coeff(c) -> bool:
    return isinstance(getattr(c, "num", None), Poly)


def _gcd_cleared(a: Poly, b: Poly) -> Poly:
    """Primitive-part pseudo-remainder gcd for polynomials over a rational
    function field: clear coefficient denominators once, then run a
    division-free remainder sequence whose coefficients stay polynomial
    (content stripped each step), and normalize only at the end. This is
    what keeps nested-tower gcds from drowning in fraction reduction."""
    RF = type(a.lc() if not a.is_zero() else b.lc())
    sample = (a.lc() if not a.is_zero() else b.lc())
    one_den = Poly.const(sample.den.field, sample.den.field.one(), sample.den.var)

    def clear(p: Poly) -> Poly:
        dens = [c.den for c in p.coeffs if not c.is_zero()]
        if not dens:
            return p
        D = dens[0]
        for d in dens[1:]:
            g = poly_gcd(D, d)
            D = poly_exact_div(D * d, g) if g.degree() > 0 else D * d
        out = []
        for c in p.coeffs:
            if c.is_zero():
                out.append(c)
            else:
                out.append(RF(c.num * poly_exact_div(D, c.den), one_den, reduce=False))
        return Poly(p.field, out, p.var)

    def primitive(p: Poly) -> Poly:
        nums = [c.num for c in p.coeffs if not c.is_zero()]
        if not nums:
            return p
        cont = nums[0]
        for q in nums[1:]:
            cont = poly_gcd(cont, q)
            if cont.degree() == 0:
                break
        if cont.degree() == 0:
            return p
        out = [
            c if c.is_zero() else RF(poly_exact_div(c.num, cont), one_den, reduce=False)
            for c in p.coeffs
        ]
        return Poly(p.field, out, p.var)

    def prem_ring(A: Poly, B: Poly) -> Poly:
        lb = B.lc()
        dB = B.degree()
        R = A
        while not R.is_zero() and R.degree() >= dB:
            shift = R.degree() - dB
            R = R.scale(lb) - (B.scale(R.lc())).shift_up(shift)
        return R

    A, B = clear(a), clear(b)
    if A.degree() < B.degree():
        A, B = B, A
    while not B.is_zero():
        R = prem_ring(A, B)
        A, B = B, (primitive(R) if not R.is_zero() else R)
    return A.monic()


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; total (gcd with zero is defined).

    Over Q(i) the remainders are kept monic (coefficients auto-reduce); over
    rational-function coefficient fields the fraction-free primitive
    remainder sequence avoids per-step fraction reduction."""
    if a.is_zero() and b.is_zero():
        return a._wrap([])
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.degree() > 0 and b.degree() > 0 and _is_ratfunc_coeff(a.lc()):
        return _gcd_cleared(a, b)
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def resultant(a: Poly, b: Poly):
    """res(a, b) = lc(a)^deg(b) * prod b(root) over the roots of a.

    Computed by the subresultant PRS; no fraction blowup on nested
    coefficient fields.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    f = a.field
    if a.degree() == 0 and b.degree() == 0:
        return f.one()
    if a.degree() == 0:
        return _field_pow(a.lc(), b.degree(), f)
    if b.degree() == 0:
        return _field_pow(b.lc(), a.degree(), f)
    _, res = _subresultant_prs(a, b)
    return res


def extended_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g = poly_gcd(a, b), g monic.

    Normalized so deg s < deg b - deg g whenever b does not divide a.
    Equal inputs tie-break to (monic(a), 0, 1/lc).
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of zeros")
    f = a.field
    zero, one = a._wrap([]), Poly.const(f, f.one(), a.var)
    if a == b:
        return a.monic(), zero, Poly.const(f, f.one() / b.lc(), a.var)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = r0.lc()
    g = r0.scale_div(c)
    s = s0.scale_div(c)
    t = t0.scale_div(c)
    # reduce s modulo b/g for the canonical small cofactor
    if not b.is_zero() and b.degree() > g.degree():
        bq = poly_exact_div(b, g)
        q, s = poly_divmod(s, bq)
        if not q.is_zero():
            t = t + q * poly_exact_div(a, g)
    return g, s, t


def solve_diophantine(a: Poly, b: Poly, c: Poly) -> tuple[Poly, Poly]:
    """s, t with s*a + t*b = c and deg s < deg b, given gcd(a, b) | c."""
    g, s, t = extended_gcd(a, b)
    q, r = poly_divmod(c, g)
    if not r.is_zero():
        raise ValueError("no diophantine solution: gcd does not divide target")
    s, t = s * q, t * q
    if not b.is_zero() and s.degree() >= b.degree():
        bg = poly_exact_div(b, g)
        q2, s = poly_divmod(s, bg)
        t = t + q2 * poly_exact_div(a, g)
    return s, t


# -- squarefree decomposition (Yun) -----------------------------------------


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod f_i^m_i with the f_i monic, squarefree,
    pairwise coprime, and the m_i strictly increasing.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of zero")
    p = p.monic()
    if p.degree() == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree() == 0:
        return [(p, 1)]
    out = []
    b = poly_exact_div(p, g)
    c = poly_exact_div(dp, g)
    d = c - b.derivative()
    i = 1
    while b.degree() > 0:
        a = poly_gcd(b, d)
        if a.degree() > 0:
            out.append((a.monic(), i))
            b = poly_exact_div(b, a)
        c = poly_exact_div(d, a)
        d = c - b.derivative()
        i += 1
    return out


def squarefree_part(p: Poly) -> Poly:
    out = Poly.const(p.field, p.field.one(), p.var)
    for q, _ in squarefree_decompose(p):
        out = out * q
    return out


# -- partial fractions -------------------------------------------------------


def partial_fractions(num, den_factors: list[tuple[Poly, int]]):
    """Split num / prod(f^m) into a list of (a, f, k) with deg a < deg f,
    meaning sum of a / f^k. Requires num proper against the full denominator.
    Accepts either the numerator polynomial or a whole rational function
    whose denominator matches the given squarefree decomposition.
    """
    if isinstance(getattr(num, "num", None), Poly):
        rf = num
        den = Poly.const(rf.den.field, rf.den.field.one(), rf.den.var)
        for f, m in den_factors:
            den = den * f ** m
        if den.monic() != rf.den:
            raise ValueError("den_factors is not a decomposition of the denominator")
        num = rf.num
    total_deg = sum(f.degree() * m for f, m in den_factors)
    if num.degree() >= total_deg:
        raise ValueError("improper fraction: call poly_divmod first")
    if num.is_zero():
        return []
    terms = []
    remaining = list(den_factors)
    cur = num
    while remaining:
        f0, m0 = remaining.pop(0)
        fm = f0 ** m0
        rest = Poly.const(num.field, num.field.one(), num.var)
        for f, m in remaining:
            rest = rest * f ** m
        if rest.degree() == 0:
            part = poly_mod(cur.scale_div(rest.lc()), fm)
            nxt = cur._wrap([])
        else:
            # 1 = s*fm + t*rest, so cur/(fm*rest) = cur*t/fm + cur*s/rest
            _, s, t = extended_gcd(fm, rest)
            part_raw = cur * t
            q, part = poly_divmod(part_raw, fm)
            nxt = poly_mod(cur * s + q * rest, rest)
        # expand part / f0^m0 in f0-adic digits
        k = m0
        while not part.is_zero() and k > 0:
            q, digit = poly_divmod(part, f0)
            if not digit.is_zero():
                terms.append((digit, f0, k))
            part = q
            k -= 1
        if not part.is_zero():
            raise ValueError("partial fraction expansion overflow (improper input?)")
        cur = nxt
        if cur.is_zero():
            break
    return terms
