"""Rational functions over an abstract coefficient field.

`FracField(coeff_field, var)` is the field descriptor whose elements are
`RatFunc` values in canonical form: monic denominator, coprime numerator
and denominator. Stacked FracFields over QI realize differential tower
fields, so canonical form at every level makes equality syntactic.
"""
from __future__ import annotations

from .poly import Poly, poly_gcd, poly_exact_div


class RatFunc:
    """num / den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce:
            if num.is_zero():
                den = Poly.const(den.field, den.field.one(), den.var)
            else:
                if den.degree() > 0 and num.degree() > 0:
                    g = poly_gcd(num, den)
                    if g.degree() > 0:
                        num = poly_exact_div(num, g)
                        den = poly_exact_div(den, g)
                c = den.lc()
                if not (c - den.field.one()).is_zero():
                    num = num.scale_div(c)
                    den = den.scale_div(c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        one = Poly.const(p.field, p.field.one(), p.var)
        return cls(p, one, reduce=False)

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.den.degree() == 0 and self.num.is_one()

    def is_poly(self) -> bool:
        return self.den.degree() == 0

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num.coeff(0) / self.den.coeff(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        if self.den == other.den:
            return RatFunc(self.num - other.num, self.den)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    # -- comparison / rendering ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.degree() == 0 and self.den.is_one():
            return str(self.num)
        n = str(self.num)
        d = str(self.den)
        if self.num.degree() > 0 and len(self.num.coeffs) > 1:
            n = f"({n})"
        if self.den.degree() > 0 and len(self.den.coeffs) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self})"


class FracField:
    """Field descriptor for rational functions in `var` over `coeff_field`."""

    __slots__ = ("coeff_field", "var", "_zero", "_one")

    def __init__(self, coeff_field, var: str):
        object.__setattr__(self, "coeff_field", coeff_field)
        object.__setattr__(self, "var", var)
        one_p = Poly.const(coeff_field, coeff_field.one(), var)
        zero_p = Poly(coeff_field, [], var)
        object.__setattr__(self, "_zero", RatFunc(zero_p, one_p, reduce=False))
        object.__setattr__(self, "_one", RatFunc(one_p, one_p, reduce=False))

    def __setattr__(self, name, value):
        raise AttributeError("FracField is immutable")

    def zero(self) -> RatFunc:
        return self._zero

    def one(self) -> RatFunc:
        return self._one

    def from_int(self, n: int) -> RatFunc:
        return self.from_coeff(self.coeff_field.from_int(n))

    def from_coeff(self, c) -> RatFunc:
        return RatFunc(
            Poly.const(self.coeff_field, c, self.var), self._one.den, reduce=False
        )

    def from_poly(self, p: Poly) -> RatFunc:
        return RatFunc(p, self._one.den)

    def poly(self, coeffs) -> Poly:
        return Poly(self.coeff_field, coeffs, self.var)

    def gen(self) -> RatFunc:
        return self.from_poly(Poly.gen(self.coeff_field, self.var))

    def __eq__(self, other):
        if not isinstance(other, FracField):
            return NotImplemented
        return self.var == other.var and self.coeff_field == other.coeff_field

    def __hash__(self):
        return hash((FracField, self.var))

    def __repr__(self):
        return f"FracField({self.coeff_field!r}, {self.var!r})"
