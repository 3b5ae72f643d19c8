"""Finite field extensions K[w]/(S) by a formal root of a monic polynomial.

Used for arithmetic with residues that are algebraic over the constants:
elements are polynomials in the root, reduced modulo S. When S is reducible
an inversion may hit a zero divisor; the raised SplitsModulus carries the
discovered factor so the one caller that inverts, the gcd building a
root-sum argument (integrate._rt_rootsum), can refine S and retry.
"""
from __future__ import annotations

from .poly import Poly, poly_mod, extended_gcd


class SplitsModulus(Exception):
    """Inversion found a proper factor of the modulus."""

    def __init__(self, factor: Poly):
        super().__init__(f"modulus splits: factor {factor}")
        self.factor = factor


class AlgElem:
    """Element of K[w]/(S), stored as a Poly in w of degree < deg S."""

    __slots__ = ("ext", "rep")

    def __init__(self, ext: "AlgExtField", rep: Poly):
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("AlgElem is immutable")

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __add__(self, other):
        return AlgElem(self.ext, self.rep + other.rep)

    def __sub__(self, other):
        return AlgElem(self.ext, self.rep - other.rep)

    def __neg__(self):
        return AlgElem(self.ext, -self.rep)

    def __mul__(self, other):
        return AlgElem(self.ext, poly_mod(self.rep * other.rep, self.ext.modulus))

    def __truediv__(self, other):
        return self * other.inv()

    def inv(self) -> "AlgElem":
        if self.rep.is_zero():
            raise ZeroDivisionError("inverse of zero in extension")
        g, s, _ = extended_gcd(self.rep, self.ext.modulus)
        if g.degree() > 0:
            raise SplitsModulus(g)
        return AlgElem(self.ext, poly_mod(s.scale_div(g.lc()), self.ext.modulus))

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"AlgElem({self.rep})"


class AlgExtField:
    """Field descriptor for K[w]/(S); S monic squarefree over field K."""

    __slots__ = ("modulus", "_zero", "_one")

    def __init__(self, modulus: Poly):
        if modulus.degree() < 1:
            raise ValueError("extension modulus must be nonconstant")
        object.__setattr__(self, "modulus", modulus.monic())
        f = modulus.field
        object.__setattr__(
            self, "_zero", AlgElem(self, Poly(f, [], modulus.var))
        )
        object.__setattr__(
            self, "_one", AlgElem(self, Poly.const(f, f.one(), modulus.var))
        )

    def __setattr__(self, name, value):
        raise AttributeError("AlgExtField is immutable")

    def zero(self) -> AlgElem:
        return self._zero

    def one(self) -> AlgElem:
        return self._one

    def from_int(self, n: int) -> AlgElem:
        f = self.modulus.field
        return AlgElem(self, Poly.const(f, f.from_int(n), self.modulus.var))

    def from_coeff(self, c) -> AlgElem:
        return AlgElem(self, Poly.const(self.modulus.field, c, self.modulus.var))

    def from_poly(self, p: Poly) -> AlgElem:
        return AlgElem(self, poly_mod(p, self.modulus))

    def root(self) -> AlgElem:
        return AlgElem(self, Poly.gen(self.modulus.field, self.modulus.var))

    def __eq__(self, other):
        if not isinstance(other, AlgExtField):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash((AlgExtField, self.modulus))

    def __repr__(self):
        return f"AlgExtField({self.modulus})"


def power_sums(s: Poly, upto: int) -> list:
    """Newton's identities: power sums p_0..p_upto of the roots of monic s,
    as elements of the coefficient field of s.
    """
    f = s.field
    n = s.degree()
    s = s.monic()
    # e_k = (-1)^k * coeff of w^(n-k): elementary symmetric functions
    e = [f.one()]
    for k in range(1, n + 1):
        c = s.coeff(n - k)
        e.append(c if k % 2 == 0 else -c)
    p = [f.from_int(n)]
    for k in range(1, upto + 1):
        acc = f.zero()
        for j in range(1, min(k - 1, n) + 1):
            term = e[j] * p[k - j]
            acc = acc + (term if j % 2 == 1 else -term)
        if k <= n:
            extra = e[k] * f.from_int(k)
            acc = acc + (extra if k % 2 == 1 else -extra)
        p.append(acc)
    return p
