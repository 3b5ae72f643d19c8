"""Exact scalar arithmetic: rationals and Gaussian rationals.

`Rat` is the standard library Fraction: arbitrary precision, always reduced,
positive denominator. `GaussRat` is the field Q(i) built on two of them.
"""
from __future__ import annotations

from fractions import Fraction

Rat = Fraction

_RatLike = (int, Fraction)


class GaussRat:
    """A Gaussian rational re + im*i with exact components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(
            self, "re", re if type(re) is Fraction else Fraction(re)
        )
        object.__setattr__(
            self, "im", im if type(im) is Fraction else Fraction(im)
        )

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    # -- predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_rational(self) -> bool:
        return not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, _RatLike):
            return GaussRat(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussRat(self.re * other.re)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inv(self) -> "GaussRat":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return GaussRat(1 / self.re)
        n = self.norm()
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        out = GaussRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure --------------------------------------------------

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, the field norm down to Q."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        re, im = self.re, self.im  # int / int is float(Fraction), minus the numbers ABCs
        return complex(re.numerator / re.denominator, im.numerator / im.denominator)

    # -- comparison / hashing ---------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- rendering ---------------------------------------------------

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {_imag_str(abs(self.im))}"

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    if b.denominator == 1:
        return f"{b.numerator}*i"
    if abs(b.numerator) == 1:
        s = "-" if b.numerator < 0 else ""
        return f"{s}i/{b.denominator}"
    return f"{b.numerator}*i/{b.denominator}"


class _RationalField:
    """Field descriptor for Q(i), the bottom of every coefficient stack."""

    def zero(self) -> GaussRat:
        return _ZERO

    def one(self) -> GaussRat:
        return _ONE

    def from_int(self, n: int) -> GaussRat:
        return GaussRat(n)

    def __eq__(self, other):
        return isinstance(other, _RationalField)

    def __hash__(self):
        return hash(_RationalField)

    def __repr__(self):
        return "QI"


_ZERO = GaussRat(0)
_ONE = GaussRat(1)
I_UNIT = GaussRat(0, 1)
QI = _RationalField()
