"""Differential field towers: Q(i)(x) extended by log/exp monomials.

A Tower holds an ordered list of monomials t1, t2, ... where each argument
lives strictly below, together with the chain of rational-function fields.
TowerElem values carry their minimal level and reduce to canonical form
(monic denominator, coprime numerator/denominator at every level), so the
zero test is syntactic. The derivation extends d/dx by t' = arg'/arg for
logs and t' = arg'. t for exponentials; monomials with constant argument
have derivative zero and act as formal constants.

Constancy is decided from the structure, not by differentiating
(`Tower.is_formal_constant`): an element whose minimal level has a monomial
of nonzero derivative is never constant. This is sound because every
monomial is adjoined under the assumption that it brings in no new
constants, so the constants of K(t) are those of K.

New monomials are screened for algebraic dependence on the existing tower
(Risch structure theorem): a new exp(b) or log(a) is transcendental exactly
when D(b), resp. D(a)/a, is no Q-linear combination of the D(b_i) and
D(a_j)/a_j already in the tower. That relation is decided exactly, as one
linear system over Q read off the coefficients of the cleared numerators, so
"no relation" is a proof. Forced relations such as exp(log a) = a and
log(x^2) = 2 log x are simplified away; a relation with a fractional
coefficient raises a structured error carrying the witness.

Numeric evaluation: `float_image` converts an element's coefficients to
complex once, into nested tuples in Horner order; `Tower.point(x)` is
[x, t1(x), ..., th(x)] with principal branches, each monomial argument's
image built once when the monomial is adjoined; `eval_image` evaluates an
image on a point.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .algebra.gaussian import GaussRat, QI
from .algebra.poly import Poly
from .algebra.ratfunc import RatFunc, FracField
from .algebra.linear import linear_solve
from .errors import UnsupportedError, DependentMonomialError, DegreeCapExceeded, _max_degree
from . import syntax
from .syntax import (
    Expr, Const, Var, Add, Sub, Mul, Div, Pow, Exp, Log,
    add_e, mul_e, div_e, pow_e, const_e, pretty_print, contains_trig,
)


@dataclass
class Monomial:
    kind: str          # "log" | "exp"
    arg: "TowerElem"   # element of a strictly lower level
    level: int         # 1-based position in the tower
    name: str
    assumption: str = ""


class TowerElem:
    """Element of a tower field, normalized to its minimal level."""

    __slots__ = ("tower", "level", "rep")

    def __init__(self, tower: "Tower", level: int, rep: RatFunc):
        while level > 0 and rep.num.degree() <= 0 and rep.den.degree() <= 0:
            num_c = rep.num.coeff(0)
            den_c = rep.den.coeff(0)
            rep = num_c / den_c
            level -= 1
        self.tower = tower
        self.level = level
        self.rep = rep

    # -- coercion and lifting ------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElem):
            return other
        if isinstance(other, int):
            return self.tower.from_int(other)
        if isinstance(other, GaussRat):
            return self.tower.const(other)
        return None

    def _pair(self, other):
        lvl = max(self.level, other.level)
        ra = self.tower.lift_rep(self.rep, self.level, lvl)
        rb = self.tower.lift_rep(other.rep, other.level, lvl)
        return lvl, ra, rb

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lvl, ra, rb = self._pair(other)
        return TowerElem(self.tower, lvl, ra + rb)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lvl, ra, rb = self._pair(other)
        return TowerElem(self.tower, lvl, ra - rb)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return TowerElem(self.tower, self.level, -self.rep)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        lvl, ra, rb = self._pair(other)
        return TowerElem(self.tower, lvl, ra * rb)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero tower element")
        lvl, ra, rb = self._pair(other)
        return TowerElem(self.tower, lvl, ra / rb)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        return TowerElem(self.tower, self.level, self.rep ** n)

    def inv(self):
        return TowerElem(self.tower, self.level, self.rep.inv())

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.rep.num.is_zero()

    def is_constant(self) -> bool:
        """Constant as a plain Gaussian rational (minimal level 0 and free
        of x). Formal constants of positive level are not reported here;
        `Tower.is_formal_constant` decides those."""
        return self.level == 0 and self.rep.is_const()

    def const_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("not a base constant")
        return self.rep.const_value()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        _, ra, rb = self._pair(other)
        return ra == rb

    def __hash__(self):
        return hash((self.level, self.rep))

    def __str__(self):
        return pretty_print(self.tower.to_expr(self))

    def __repr__(self):
        return f"TowerElem(level={self.level}, {self.rep})"


class Tower:
    """Chain Q(i)(x) = F0 in F1 in ... with one monomial per extension."""

    def __init__(self, base_var: str = "x"):
        self.base_var = base_var
        self.monomials: list[Monomial] = []
        self.fields: list[FracField] = [FracField(QI, base_var)]
        self._dlog: list[TowerElem] = []  # per monomial: D(arg)/arg or D(arg)
        self._images: list[tuple | None] = []  # per monomial: float_image of arg

    # -- structure --------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.monomials)

    def field(self, level: int) -> FracField:
        return self.fields[level]

    def monomial_at(self, level: int) -> Monomial:
        return self.monomials[level - 1]

    def zero(self) -> TowerElem:
        return TowerElem(self, 0, self.fields[0].zero())

    def one(self) -> TowerElem:
        return TowerElem(self, 0, self.fields[0].one())

    def from_int(self, n: int) -> TowerElem:
        return TowerElem(self, 0, self.fields[0].from_int(n))

    def const(self, c: GaussRat) -> TowerElem:
        return TowerElem(self, 0, self.fields[0].from_coeff(c))

    def x(self) -> TowerElem:
        return TowerElem(self, 0, self.fields[0].gen())

    def theta(self, level: int) -> TowerElem:
        return TowerElem(self, level, self.fields[level].gen())

    def lift_rep(self, rep: RatFunc, from_level: int, to_level: int) -> RatFunc:
        while from_level < to_level:
            from_level += 1
            rep = self.fields[from_level].from_coeff(rep)
        return rep

    def elem(self, level: int, rep: RatFunc) -> TowerElem:
        return TowerElem(self, level, rep)

    def _append_monomial(self, kind: str, arg: TowerElem, assumption: str) -> TowerElem:
        level = self.height + 1
        name = f"t{level}"
        mono = Monomial(kind, arg, level, name, assumption)
        self.monomials.append(mono)
        self.fields.append(FracField(self.fields[-1], name))
        d_arg = self.derive(arg)
        if kind == "log":
            self._dlog.append(d_arg / arg if not d_arg.is_zero() else self.zero())
        else:
            self._dlog.append(d_arg)
        try:
            self._images.append(float_image(arg.rep, arg.level))
        except OverflowError:  # beyond float range: point() raises, as evaluating did
            self._images.append(None)
        return self.theta(level)

    # -- derivation ---------------------------------------------------------

    def derive(self, f: TowerElem) -> TowerElem:
        return TowerElem(self, f.level, self._derive_rep(f.rep, f.level))

    def _derive_rep(self, rep: RatFunc, level: int) -> RatFunc:
        num, den = rep.num, rep.den
        dn = self._derive_poly(num, level)
        if den.degree() == 0:
            return RatFunc(dn, den)
        dd = self._derive_poly(den, level)
        return RatFunc(dn * den - num * dd, den * den)

    def _derive_poly(self, p: Poly, level: int) -> Poly:
        if level == 0:
            return p.derivative()
        below = self.fields[level - 1]
        out = Poly(below, [self._derive_rep(c, level - 1) for c in p.coeffs], p.var)
        mono = self.monomials[level - 1]
        dlog = self._dlog[level - 1]
        if dlog.is_zero():
            return out
        dt = self.lift_rep(dlog.rep, dlog.level, level - 1)
        if mono.kind == "log":
            formal = p.derivative()
            out = out + formal.map_coeffs(lambda c: c * dt)
        else:
            scaled = [
                c * below.from_int(j) * dt if j > 0 else below.zero()
                for j, c in enumerate(p.coeffs)
            ]
            out = out + Poly(below, scaled, p.var)
        return out

    def is_formal_constant(self, f: TowerElem) -> bool:
        """D(f) = 0, read off the structure. At a level whose monomial has
        nonzero derivative, f is not constant (no new constants). At a level
        with constant monomial, D acts on coefficients, so by uniqueness of
        the reduced form with monic denominator f is constant exactly when
        every coefficient of its numerator and denominator is."""
        if f.level == 0:
            return f.rep.is_const()
        if not self._dlog[f.level - 1].is_zero():
            return False
        return all(
            self.is_formal_constant(TowerElem(self, f.level - 1, c))
            for p in (f.rep.num, f.rep.den) for c in p.coeffs
        )

    def monomial_dlog(self, level: int) -> TowerElem:
        """For a log monomial, D(theta) = D(arg)/arg; for an exp monomial,
        D(arg), so that D(theta) = D(arg) * theta. Both live below `level`."""
        return self._dlog[level - 1]

    # -- evaluation -----------------------------------------------------------

    def point(self, x: complex) -> list[complex]:
        """[x, t1(x), ..., th(x)]: every monomial evaluated once, with
        principal branches, in tower order."""
        pt = [x]
        for mono, img in zip(self.monomials, self._images):
            if img is None:
                raise OverflowError(f"coefficient of {mono.arg} beyond float range")
            a = eval_image(img, pt)
            pt.append(cmath.log(a) if mono.kind == "log" else cmath.exp(a))
        return pt

    def eval_complex(self, f: TowerElem, x_val: complex) -> complex:
        """Numeric evaluation with principal branches for the monomials."""
        return eval_image(float_image(f.rep, f.level), self.point(x_val))

    # -- rendering --------------------------------------------------------------

    def theta_expr(self, level: int) -> Expr:
        mono = self.monomials[level - 1]
        inner = self.to_expr(mono.arg)
        return Log(inner) if mono.kind == "log" else Exp(inner)

    def to_expr(self, f: TowerElem) -> Expr:
        return self._rep_expr(f.rep, f.level)

    def _rep_expr(self, rep: RatFunc, level: int) -> Expr:
        num = self._poly_expr(rep.num, level)
        if rep.den.degree() == 0 and rep.den.is_one():
            return num
        return div_e(num, self._poly_expr(rep.den, level))

    def _poly_expr(self, p: Poly, level: int) -> Expr:
        if p.is_zero():
            return Const(GaussRat(0))
        if level == 0:
            gen: Expr = Var(self.base_var)
            coeff_exprs = [const_e(c) for c in p.coeffs]
        else:
            gen = self.theta_expr(level)
            coeff_exprs = [self._rep_expr(c, level - 1) for c in p.coeffs]
        out = Const(GaussRat(0))
        for j in range(len(p.coeffs) - 1, -1, -1):
            term = mul_e(coeff_exprs[j], pow_e(gen, j))
            out = add_e(out, term)
        return out

    def dump_json(self) -> dict:
        return {
            "base": self.base_var,
            "monomials": [
                {"kind": m.kind, "arg": pretty_print(self.to_expr(m.arg))}
                for m in self.monomials
            ],
        }

    def assumptions(self) -> list[str]:
        return [m.assumption for m in self.monomials if m.assumption]


def float_image(rep: RatFunc, level: int) -> tuple:
    """(level, num, den) with each polynomial's coefficients highest first:
    complex at level 0, images one level down above it."""
    return (level,) + tuple(
        tuple(float_image(c, level - 1) if level else c.to_complex() for c in reversed(p.coeffs))
        for p in (rep.num, rep.den))


def eval_image(img: tuple, pt: list[complex]) -> complex:
    """Value of a float image on a point from `Tower.point`, by Horner's rule."""
    level, num, den = img
    if level:
        num, den = [eval_image(c, pt) for c in num], [eval_image(c, pt) for c in den]
    v, n, d = pt[level], 0j, 0j
    for c in num:
        n = n * v + c
    for c in den:
        d = d * v + c
    if d == 0:
        raise ZeroDivisionError("evaluation hits a pole")
    return n / d


# ------------------------------------------------------- dependence screening


def _relation_solve(t: Tower, basis: list[TowerElem],
                    target: TowerElem) -> list[Fraction] | None:
    """Rational q with target = sum q_k basis_k exactly, or None.

    Lifted to one level with the denominators cleared there, the relation is
    a polynomial identity. Read down to Q(i), each of its coefficients gives
    one equation over Q from its real part and one from its imaginary part.
    The system is exact, so None proves that no rational relation exists.
    """
    if target.is_zero():
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    elems = basis + [target]
    level = max(w.level for w in elems)
    rows: list[list[GaussRat]] = []
    _coefficient_rows([t.lift_rep(w.rep, w.level, level) for w in elems], level, rows)
    sol = linear_solve([r[:-1] for r in rows], [r[-1] for r in rows], QI)
    return None if sol is None else [q.re for q in sol]


def _coefficient_rows(reps: list[RatFunc], level: int, rows: list) -> None:
    """Append to `rows` the equations over Q, as real GaussRats, equivalent to
    sum q_k reps_k = reps_-1 for rational q."""
    dens = []
    for r in reps:
        if r.den.degree() > 0 and r.den not in dens:
            dens.append(r.den)
    nums = []
    for r in reps:
        p = r.num
        for d in dens:
            if d != r.den:
                p = p * d
        nums.append(p)
    for j in range(max(p.degree() for p in nums) + 1):
        coeffs = [p.coeff(j) for p in nums]
        if level > 0:
            _coefficient_rows(coeffs, level - 1, rows)
            continue
        for part in ("re", "im"):
            row = [GaussRat(getattr(c, part)) for c in coeffs]
            if any(row):
                rows.append(row)


def _dependence_basis(t: Tower):
    """Derivative basis for relation screening: D(b_i) for exponentials and
    D(a_j)/a_j for logarithms, skipping constant-argument monomials."""
    labels = [m for m in t.monomials if not t._dlog[m.level - 1].is_zero()]
    return [t._dlog[m.level - 1] for m in labels], labels


def _existing(t: Tower, kind: str, arg: TowerElem) -> TowerElem | None:
    """The monomial kind(arg) if the tower already has it."""
    for m in t.monomials:
        if m.kind == kind and m.arg == arg:
            return t.theta(m.level)
    return None


# ------------------------------------------------------------- tower building


def _exp_of_constant(t: Tower, delta: TowerElem) -> TowerElem:
    """exp(delta) for a formal constant delta: folds exp(log c) = c when the
    structure shows it, otherwise a constant-argument exp monomial (a new
    formal constant)."""
    if delta.is_zero():
        return t.one()
    lvl = delta.level
    mono = t.monomial_at(lvl) if lvl else None
    rep = delta.rep
    if (
        mono is not None
        and mono.kind == "log"
        and t._dlog[lvl - 1].is_zero()
        and rep.den.degree() == 0
        and rep.num.degree() == 1
    ):
        k_elem = TowerElem(t, lvl - 1, rep.num.coeff(1) / rep.den.coeff(0))
        rest = TowerElem(t, lvl - 1, rep.num.coeff(0) / rep.den.coeff(0))
        if k_elem.is_constant():
            k = k_elem.const_value()
            if k.is_integer():
                base = mono.arg ** int(k.re)
                return base * _exp_of_constant(t, rest)
    found = _existing(t, "exp", delta)
    return found if found is not None else t._append_monomial("exp", delta, "")


def _log_of_constant(t: Tower, delta: TowerElem) -> TowerElem:
    """log(delta) for a formal constant delta: folds log(exp c) = c when the
    structure shows it, otherwise a constant-argument log monomial."""
    if delta.is_zero():
        raise UnsupportedError("log(0) is undefined")
    if delta == t.one():
        return t.zero()
    lvl = delta.level
    rep = delta.rep
    mono = t.monomial_at(lvl) if lvl else None
    if mono is not None and mono.kind == "exp" and t._dlog[lvl - 1].is_zero():
        num, den = rep.num, rep.den
        # delta = c * theta^k
        if den.degree() == 0 and len([c for c in num.coeffs if not c.is_zero()]) == 1:
            k = num.degree()
            lead = TowerElem(t, lvl - 1, num.coeff(k) / den.coeff(0))
            if t.is_formal_constant(lead):
                return mono.arg * k + _log_of_constant(t, lead)
    found = _existing(t, "log", delta)
    return found if found is not None else t._append_monomial("log", delta, "")


def _make_exp(t: Tower, b: TowerElem) -> TowerElem:
    if t.is_formal_constant(b):
        return _exp_of_constant(t, b)
    found = _existing(t, "exp", b)
    if found is not None:
        return found
    basis, labels = _dependence_basis(t)
    sol = _relation_solve(t, basis, t.derive(b))
    if sol is None:
        return t._append_monomial(
            "exp", b,
            f"exp({pretty_print(t.to_expr(b))}) assumed transcendental over the tower below",
        )
    # b = sum q_k * (b_i or log a_j) + constant
    combo = t.zero()
    product = t.one()
    for q, mono in zip(sol, labels):
        if q == 0:
            continue
        if q.denominator != 1:
            raise DependentMonomialError(
                "dependent exponential needs a fractional power "
                "(algebraic extension unsupported)",
                relation=f"argument = {q} * existing monomial data + ...",
            )
        k = int(q)
        if mono.kind == "exp":
            combo = combo + mono.arg * k
            product = product * t.theta(mono.level) ** k
        else:
            combo = combo + t.theta(mono.level) * k
            product = product * mono.arg ** k
    delta = b - combo
    if not t.is_formal_constant(delta):  # an explicit raise fires under -O too
        raise ArithmeticError(f"exp relation leaves a non-constant remainder {delta}")
    return product * _exp_of_constant(t, delta)


def _make_log(t: Tower, a: TowerElem) -> TowerElem:
    if t.is_formal_constant(a):
        return _log_of_constant(t, a)
    found = _existing(t, "log", a)
    if found is not None:
        return found
    basis, labels = _dependence_basis(t)
    sol = _relation_solve(t, basis, t.derive(a) / a)
    if sol is None:
        return t._append_monomial(
            "log", a,
            f"log({pretty_print(t.to_expr(a))}) assumed transcendental over the tower below",
        )
    combo = t.zero()
    product = t.one()
    for q, mono in zip(sol, labels):
        if q == 0:
            continue
        if q.denominator != 1:
            raise DependentMonomialError(
                "dependent logarithm needs a fractional multiplicative relation "
                "(algebraic extension unsupported)",
                relation=f"dlog(argument) = {q} * dlog(existing) + ...",
            )
        k = int(q)
        if mono.kind == "log":
            combo = combo + t.theta(mono.level) * k
            product = product * mono.arg ** k
        else:
            combo = combo + mono.arg * k
            product = product * t.theta(mono.level) ** k
    delta = a / product
    if not t.is_formal_constant(delta):  # an explicit raise fires under -O too
        raise ArithmeticError(f"log relation leaves a non-constant remainder {delta}")
    return combo + _log_of_constant(t, delta)


def _convert(t: Tower, e: Expr, var: str) -> TowerElem:
    if isinstance(e, Const):
        return t.const(e.value)
    if isinstance(e, Var):
        if e.name != var:
            raise UnsupportedError(
                f"unknown variable {e.name!r} (integration variable is {var!r})"
            )
        return t.x()
    if isinstance(e, Add):
        return _convert(t, e.left, var) + _convert(t, e.right, var)
    if isinstance(e, Sub):
        return _convert(t, e.left, var) - _convert(t, e.right, var)
    if isinstance(e, Mul):
        return _convert(t, e.left, var) * _convert(t, e.right, var)
    if isinstance(e, Div):
        denom = _convert(t, e.right, var)
        if denom.is_zero():
            raise UnsupportedError("division by an expression that is identically zero")
        return _convert(t, e.left, var) / denom
    if isinstance(e, Pow):
        exponent = _convert(t, e.exponent, var)
        if exponent.is_constant():
            c = exponent.const_value()
            if c.is_integer():
                base = _convert(t, e.base, var)
                n = int(c.re)
                if n < 0 and base.is_zero():
                    raise UnsupportedError("zero raised to a negative power")
                if abs(n) > _max_degree() and not base.is_constant():
                    raise DegreeCapExceeded(f"input exponent {n} exceeds LIOUVILLE_MAX_DEGREE")
                return base ** n
            raise UnsupportedError(
                "algebraic extension unsupported: fractional power "
                f"{pretty_print(e)}"
            )
        # non-constant exponent: u^v = exp(v*log(u))
        base = _convert(t, e.base, var)
        return _make_exp(t, exponent * _make_log(t, base))
    if isinstance(e, Exp):
        return _make_exp(t, _convert(t, e.arg, var))
    if isinstance(e, Log):
        return _make_log(t, _convert(t, e.arg, var))
    if contains_trig(e):
        raise UnsupportedError("trig input must be rewritten first (rewrite_trig)")
    raise UnsupportedError(f"unsupported expression node {type(e).__name__}")


def build_tower(e: Expr, var: str = "x") -> tuple[Tower, TowerElem]:
    """Build the monomial tower for a trig-free expression and convert the
    expression into a TowerElem over it."""
    e = syntax.rewrite_trig(e)
    t = Tower(var)
    f = _convert(t, e, var)
    return t, f


def convert_expr(t: Tower, e: Expr) -> TowerElem:
    """Convert another expression over an existing tower, extending it with
    any new monomials the expression needs."""
    return _convert(t, syntax.rewrite_trig(e), t.base_var)
