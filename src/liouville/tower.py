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
by solving for a rational linear relation between derivatives (exact
arithmetic over sampled rational points, then exact verification). Forced
relations such as exp(log a) = a and log(x^2) = 2 log x are simplified
away; anything residual raises a structured error carrying the witness.

Numeric evaluation: `Tower.point(x)` is [x, t1(x), ..., th(x)] with
principal branches, and `Tower.eval_rep` evaluates any element on it.
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra.gaussian import GaussRat, QI
from .algebra.poly import Poly
from .algebra.ratfunc import RatFunc, FracField
from .algebra.linear import linear_solve
from .errors import UnsupportedError, DependentMonomialError
from . import syntax
from .syntax import (
    Expr, Const, Var, Add, Sub, Mul, Div, Pow, Exp, Log,
    add_e, mul_e, div_e, pow_e, const_e, pretty_print, contains_trig,
)


@dataclass(frozen=True)
class Valid:
    assumption: str


@dataclass(frozen=True)
class Dependent:
    relation: str


@dataclass
class Monomial:
    kind: str          # "log" | "exp"
    arg: "TowerElem"   # element of a strictly lower level
    level: int         # 1-based position in the tower
    name: str
    assumption: str = ""

    def is_constant_arg(self) -> bool:
        return self.arg.is_constant()


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

    def eval_exact(self, f: TowerElem, x_val: GaussRat,
                   theta_vals: list[GaussRat]) -> GaussRat:
        """Evaluate at exact coordinates, treating monomials as free values."""

        def ev_poly(p: Poly, level: int) -> GaussRat:
            if level == 0:
                return p.eval(x_val)
            v = theta_vals[level - 1]
            acc = GaussRat(0)
            for c in reversed(p.coeffs):
                acc = acc * v + ev_rep(c, level - 1)
            return acc

        def ev_rep(rep: RatFunc, level: int) -> GaussRat:
            n = ev_poly(rep.num, level)
            d = ev_poly(rep.den, level)
            if d.is_zero():
                raise ZeroDivisionError("sample point hits a pole")
            return n / d

        return ev_rep(f.rep, f.level)

    def point(self, x: complex) -> list[complex]:
        """[x, t1(x), ..., th(x)]: every monomial evaluated once, with
        principal branches, in tower order."""
        pt = [x]
        for mono in self.monomials:
            a = self.eval_rep(mono.arg.rep, mono.arg.level, pt)
            pt.append(cmath.log(a) if mono.kind == "log" else cmath.exp(a))
        return pt

    def eval_rep(self, rep: RatFunc, level: int, pt: list[complex]) -> complex:
        """Value of a representation at `level` on a point from `point`."""
        v, num_den = pt[level], []
        for p in (rep.num, rep.den):
            acc = 0j
            for c in reversed(p.coeffs):
                acc = acc * v + (self.eval_rep(c, level - 1, pt) if level else c.to_complex())
            num_den.append(acc)
        n, d = num_den
        if d == 0:
            raise ZeroDivisionError("evaluation hits a pole")
        return n / d

    def eval_complex(self, f: TowerElem, x_val: complex) -> complex:
        """Numeric evaluation with principal branches for the monomials."""
        return self.eval_rep(f.rep, f.level, self.point(x_val))

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


# ------------------------------------------------------- dependence screening


def _sample_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 7))


def _relation_solve(t: Tower, basis: list[TowerElem],
                    target: TowerElem) -> list[Fraction] | None:
    """Rational coefficients q with target = sum q_k basis_k, or None.

    Exact evaluation at random rational sample points produces a linear
    system over Q(i); a candidate solution is then verified exactly, so a
    returned relation is always sound.
    """
    if target.is_zero():
        return [Fraction(0)] * len(basis)
    if not basis:
        return None
    rng = random.Random(0xD1CE + 31 * len(basis) + t.height)
    rows, rhs = [], []
    attempts = 0
    needed = len(basis) + 4
    while len(rows) < needed and attempts < 200:
        attempts += 1
        x_val = GaussRat(_sample_fraction(rng))
        thetas = [GaussRat(_sample_fraction(rng)) for _ in range(t.height)]
        try:
            row = [t.eval_exact(w, x_val, thetas) for w in basis]
            b = t.eval_exact(target, x_val, thetas)
        except ZeroDivisionError:
            continue
        rows.append(row)
        rhs.append(b)
    if len(rows) < needed:
        return None
    sol = linear_solve(rows, rhs, QI)
    if sol is None:
        return None
    if any(not q.is_rational() for q in sol):
        return None
    # exact verification of the candidate
    acc = t.zero()
    for q, w in zip(sol, basis):
        acc = acc + t.const(GaussRat(q.re)) * w
    if not (target - acc).is_zero():
        return None
    return [q.re for q in sol]


def _dependence_basis(t: Tower, upto_level: int):
    """Derivative basis for relation screening: D(b_i) for exponentials and
    D(a_j)/a_j for logarithms, skipping constant-argument monomials."""
    basis, labels = [], []
    for mono in t.monomials:
        if mono.level > upto_level:
            break
        d = t._dlog[mono.level - 1]
        if d.is_zero():
            continue
        basis.append(d)
        labels.append(mono)
    return basis, labels


def check_monomial(t: Tower, m: Monomial):
    """Valid (with the recorded independence assumption) or Dependent with
    the witness relation."""
    upto = m.level - 1 if m.level <= t.height else t.height
    if t.is_formal_constant(m.arg):
        return Valid("constant argument: treated as a formal constant")
    d_arg = t.derive(m.arg)
    target = d_arg / m.arg if m.kind == "log" else d_arg
    basis, labels = _dependence_basis(t, upto)
    sol = _relation_solve(t, basis, target)
    if sol is None:
        kind_word = "log" if m.kind == "log" else "exp"
        return Valid(
            f"{kind_word}({pretty_print(t.to_expr(m.arg))}) assumed "
            "transcendental over the tower below"
        )
    terms = []
    for q, mono in zip(sol, labels):
        if q == 0:
            continue
        dlog_txt = (
            f"dlog({pretty_print(t.to_expr(mono.arg))})"
            if mono.kind == "log"
            else f"D({pretty_print(t.to_expr(mono.arg))})"
        )
        terms.append(f"{q}*{dlog_txt}")
    lhs = (
        f"dlog({pretty_print(t.to_expr(m.arg))})"
        if m.kind == "log"
        else f"D({pretty_print(t.to_expr(m.arg))})"
    )
    rhs = " + ".join(terms) if terms else "0"
    return Dependent(f"{lhs} = {rhs}")


# ------------------------------------------------------------- tower building


def _exp_of_constant(t: Tower, delta: TowerElem) -> TowerElem:
    """exp(delta) for a formal constant delta: folds exp(log c) = c when the
    structure shows it, otherwise a constant-argument exp monomial (a new
    formal constant)."""
    if delta.is_zero():
        return t.one()
    if delta.is_constant():
        return _make_exp(t, delta)
    lvl = delta.level
    mono = t.monomial_at(lvl)
    rep = delta.rep
    if (
        mono.kind == "log"
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
    for m in t.monomials:
        if m.kind == "exp" and t._dlog[m.level - 1].is_zero() and m.arg == delta:
            return t.theta(m.level)
    t._append_monomial("exp", delta, "")
    return t.theta(t.height)


def _log_of_constant(t: Tower, delta: TowerElem) -> TowerElem:
    """log(delta) for a formal constant delta: folds log(exp c) = c when the
    structure shows it, otherwise a constant-argument log monomial."""
    if delta.is_zero():
        raise UnsupportedError("log(0) is undefined")
    if delta == t.one():
        return t.zero()
    if delta.is_constant():
        return _make_log(t, delta)
    lvl = delta.level
    mono = t.monomial_at(lvl)
    rep = delta.rep
    if mono.kind == "exp" and t._dlog[lvl - 1].is_zero():
        num, den = rep.num, rep.den
        # delta = c * theta^k
        if den.degree() == 0 and len([c for c in num.coeffs if not c.is_zero()]) == 1:
            k = num.degree()
            lead = TowerElem(t, lvl - 1, num.coeff(k) / den.coeff(0))
            if t.is_formal_constant(lead):
                return mono.arg * k + _log_of_constant(t, lead)
    for m in t.monomials:
        if m.kind == "log" and t._dlog[m.level - 1].is_zero() and m.arg == delta:
            return t.theta(m.level)
    t._append_monomial("log", delta, "")
    return t.theta(t.height)


def _make_exp(t: Tower, b: TowerElem) -> TowerElem:
    if b.is_zero():
        return t.one()
    if b.is_constant():
        for mono in t.monomials:
            if mono.kind == "exp" and mono.is_constant_arg() and mono.arg == b:
                return t.theta(mono.level)
        t._append_monomial("exp", b, "")
        return t.theta(t.height)
    if t.is_formal_constant(b):
        return _exp_of_constant(t, b)
    db = t.derive(b)
    for mono in t.monomials:
        if mono.kind == "exp" and mono.arg == b:
            return t.theta(mono.level)
    basis, labels = _dependence_basis(t, t.height)
    sol = _relation_solve(t, basis, db)
    if sol is None:
        theta = t._append_monomial(
            "exp", b,
            f"exp({pretty_print(t.to_expr(b))}) assumed transcendental over the tower below",
        )
        return theta
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
    if a.is_zero():
        raise UnsupportedError("log(0) is undefined")
    if a == t.one():
        return t.zero()
    if a.is_constant():
        for mono in t.monomials:
            if mono.kind == "log" and mono.is_constant_arg() and mono.arg == a:
                return t.theta(mono.level)
        t._append_monomial("log", a, "")
        return t.theta(t.height)
    if t.is_formal_constant(a):
        return _log_of_constant(t, a)
    dlog_a = t.derive(a) / a
    for mono in t.monomials:
        if mono.kind == "log" and mono.arg == a:
            return t.theta(mono.level)
    basis, labels = _dependence_basis(t, t.height)
    sol = _relation_solve(t, basis, dlog_a)
    if sol is None:
        theta = t._append_monomial(
            "log", a,
            f"log({pretty_print(t.to_expr(a))}) assumed transcendental over the tower below",
        )
        return theta
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
