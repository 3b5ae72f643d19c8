"""The decision procedure: integrate a tower element in finite terms.

Recursion over the tower: split the integrand at its top monomial into a
polynomial part and a proper fraction, push the proper fraction through
Hermite reduction and the Rothstein-Trager log part, then integrate the
polynomial part (degree-bounded coefficient recursion for log monomials, a
Risch differential equation per power for exp monomials). Success yields a
LiouvilleForm r0 + sum(lambda * log(arg)) whose derivative reproduces the
integrand exactly; failure yields a certificate naming the level and the
condition that broke, re-checkable by independent brute force.

Residues that are algebraic over Q(i) are carried as formal root sums
"sum over S(a) = 0 of a * log(v(a))"; their contribution to a derivative is
computed exactly by norm and trace, sum_a a * D(v_a) / v_a =
Tr(a * D(v) * (N / v)) / N with N = res_a(S, v), never numerically.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra.gaussian import GaussRat, QI
from .algebra.poly import (
    Poly, poly_divmod, poly_gcd, poly_exact_div, solve_diophantine,
    squarefree_decompose, squarefree_part, resultant,
)
from .algebra.ratfunc import RatFunc, FracField
from .algebra.extension import AlgExtField, SplitsModulus, power_sums
from .algebra.linear import linear_solve
from .algebra.roots import gauss_rational_roots
from .errors import UnsupportedError, DegreeCapExceeded, _max_degree
from .tower import Tower, TowerElem


# ------------------------------------------------------------- result records


@dataclass(frozen=True)
class LogTerm:
    """coeff * log(arg) with an exact Gaussian-rational coefficient."""

    coeff: GaussRat
    arg: TowerElem


@dataclass(frozen=True)
class RootSumTerm:
    """sum over roots a of `poly` of a * log(arg(a)).

    `poly` is monic and squarefree over Q(i) in the residue variable; `arg`
    is a polynomial in that variable whose coefficients are elements of the
    tower field at `level` (stored as raw rational functions)."""

    poly: Poly
    arg: Poly
    level: int


@dataclass(frozen=True)
class LiouvilleForm:
    r0: TowerElem
    logs: tuple[LogTerm, ...] = ()
    root_sums: tuple[RootSumTerm, ...] = ()
    assumptions: tuple[str, ...] = ()


@dataclass(frozen=True)
class ResidueNotConstant:
    level: int
    detail: str
    kind: str = "residue_not_constant"


@dataclass(frozen=True)
class RischOdeUnsolvable:
    level: int
    ode: str
    trace: tuple[str, ...]
    w: object = None
    g: object = None
    kind: str = "risch_ode_unsolvable"


@dataclass(frozen=True)
class LogDegreeObstruction:
    level: int
    detail: str
    inner: object = None
    kind: str = "log_degree_obstruction"


Certificate = (ResidueNotConstant, RischOdeUnsolvable, LogDegreeObstruction)


@dataclass(frozen=True)
class NonElementary:
    certificate: object
    assumptions: tuple[str, ...] = ()


def _is_cert(x) -> bool:
    return isinstance(x, Certificate)


# ------------------------------------------------------------------ utilities


def _one_poly(p: Poly) -> Poly:
    return Poly.const(p.field, p.field.one(), p.var)


def _elem(t: Tower, level: int, num: Poly, den: Poly | None = None) -> TowerElem:
    if den is None:
        den = _one_poly(num)
    return TowerElem(t, level, RatFunc(num, den))


def _coeff_const(t: Tower, c: GaussRat, level: int):
    """c as an element of the coefficient field of level-`level` polynomials."""
    if level == 0:
        return c
    return t.lift_rep(t.field(0).from_coeff(c), 0, level - 1)


def _coeff_field(t: Tower, level: int):
    return t.field(level - 1) if level > 0 else QI


def _is_degenerate(t: Tower, level: int) -> bool:
    """True when the level's monomial has derivative zero (constant or
    formal-constant argument)."""
    return t.monomial_dlog(level).is_zero()


def _interpolate(field, values: list, var: str) -> Poly:
    """The polynomial of degree < len(values) with value values[k] at k."""
    dd = list(values)
    for k in range(1, len(dd)):
        inv_k = field.one() / field.from_int(k)
        for i in range(len(dd) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv_k
    out = Poly(field, [], var)
    for k in range(len(dd) - 1, -1, -1):
        x_minus_k = Poly(field, [field.from_int(-k), field.one()], var)
        out = out * x_minus_k + Poly.const(field, dd[k], var)
    return out


def _rootsum_dlog(t: Tower, rs: RootSumTerm) -> TowerElem:
    """Exact sum over the roots a of S of a * D(v_a) / v_a, an element of the
    tower field, as Tr(a * D(v) * (N / v)) / N. v is monic in theta over
    K[a]/(S), so the norm N = res_a(S, v) = prod_a v_a in K[theta] has degree
    deg S * deg v and N / v is exact: no inverse is taken in K(theta)[a]/(S).
    N is interpolated from resultants over K at theta = 0..deg N; the trace
    Tr pairs the coefficients in a with the power sums of S."""
    level = rs.level
    K, var = _coeff_field(t, level), t.field(level).var
    ext = AlgExtField(rs.poly.map_coeffs(lambda c: _coeff_const(t, c, level), field=K))

    def in_theta(coeffs) -> Poly:
        if not all(c.is_poly() for c in coeffs):
            raise ArithmeticError("root-sum argument is not polynomial in the monomial")
        deg = max(c.num.degree() for c in coeffs)
        return Poly(ext, [ext.from_poly(Poly(K, [c.num.coeff(j) for c in coeffs], rs.poly.var))
                          for j in range(deg + 1)], var)

    v = in_theta(rs.arg.coeffs)
    dv = in_theta([t._derive_rep(c, level) for c in rs.arg.coeffs])
    if v.lc() != ext.one():
        raise ArithmeticError(f"root-sum argument {rs.arg} is not monic in {var}")
    n = rs.poly.degree() * v.degree()
    values = [v.eval(ext.from_int(k)).rep for k in range(n + 1)]
    N = _interpolate(K, [resultant(ext.modulus, p) if not p.is_zero() else K.zero()
                         for p in values], var)
    if N.degree() != n:
        raise ArithmeticError(f"norm of a root-sum argument has degree {N.degree()}, not {n}")
    w = (dv * poly_exact_div(N.map_coeffs(ext.from_coeff, field=ext), v)).scale(ext.root())
    psums = [_coeff_const(t, p, level) for p in power_sums(rs.poly, rs.poly.degree() - 1)]
    trace = [sum((ck * p for ck, p in zip(c.rep.coeffs, psums)), K.zero()) for c in w.coeffs]
    return TowerElem(t, level, RatFunc(Poly(K, trace, var), N))


def _logs_dlog(t: Tower, logs, root_sums) -> TowerElem:
    acc = t.zero()
    for term in logs:
        acc = acc + t.const(term.coeff) * t.derive(term.arg) / term.arg
    for rs in root_sums:
        acc = acc + _rootsum_dlog(t, rs)
    return acc


def form_derivative(t: Tower, form: LiouvilleForm) -> TowerElem:
    """Exact derivative of r0 + sum(lambda log r) + root sums."""
    return t.derive(form.r0) + _logs_dlog(t, form.logs, form.root_sums)


# --------------------------------------------------------------------- combine


def _leading_constant_poly(p: Poly) -> GaussRat:
    c = p.lc()
    if isinstance(c, GaussRat):
        return c
    return _leading_constant_poly(c.num) / _leading_constant_poly(c.den)


def _strip_exp_powers(t: Tower, lam: GaussRat, arg: TowerElem):
    """log(theta^k * rest) = k*b + log(rest) for exponential monomials; pull
    the lam*k*b summand out and return (r0 contribution, cleaned argument)."""
    extra = t.zero()
    while arg.level > 0:
        mono = t.monomial_at(arg.level)
        if mono.kind != "exp":
            break
        num, den = arg.rep.num, arg.rep.den
        k_num = 0
        while k_num < len(num.coeffs) and num.coeffs[k_num].is_zero():
            k_num += 1
        k_den = 0
        while k_den < len(den.coeffs) and den.coeffs[k_den].is_zero():
            k_den += 1
        k = k_num - k_den
        if k == 0:
            break
        extra = extra + t.const(lam) * mono.arg * k
        arg = arg / t.theta(arg.level) ** k
    return extra, arg


def combine(t: Tower, r0_parts, logs, root_sums) -> LiouvilleForm:
    """Canonicalize a result: fold exp-power log arguments into r0, drop
    constant arguments, normalize leading constants, merge equal or
    rationally proportional arguments, drop zero coefficients."""
    r0 = t.zero()
    for part in r0_parts:
        r0 = r0 + part
    cleaned: list[LogTerm] = []
    for term in logs:
        lam, arg = term.coeff, term.arg
        if lam.is_zero():
            continue
        if t.is_formal_constant(arg):
            continue  # log of a constant: absorbed in the integration constant
        extra, arg = _strip_exp_powers(t, lam, arg)
        r0 = r0 + extra
        if t.is_formal_constant(arg):
            continue
        kappa = _leading_constant_poly(arg.rep.num)
        if not kappa.is_zero() and not kappa.is_one():
            arg = arg / t.const(kappa)
        cleaned.append(LogTerm(lam, arg))
    merged: list[LogTerm] = []
    dlogs: list[TowerElem] = []
    for term in cleaned:
        d_new = t.derive(term.arg) / term.arg
        hit = None
        for idx, old in enumerate(merged):
            if old.arg == term.arg:
                hit = (idx, GaussRat(1))
                break
            ratio = d_new / dlogs[idx]
            if ratio.is_constant():
                c = ratio.const_value()
                if c.is_rational():
                    hit = (idx, c)
                    break
        if hit is None:
            merged.append(term)
            dlogs.append(d_new)
        else:
            idx, c = hit
            old = merged[idx]
            merged[idx] = LogTerm(old.coeff + term.coeff * c, old.arg)
    final = tuple(term for term in merged if not term.coeff.is_zero())
    return LiouvilleForm(r0, final, tuple(root_sums), tuple(t.assumptions()))


# ----------------------------------------------------------- Hermite reduction


def _hermite(t: Tower, num: Poly, den: Poly, level: int):
    """Proper fraction num/den at `level` -> (rational part, remainder
    numerator, remainder denominator) with a squarefree remainder
    denominator: repeated single-step multiplicity reduction."""
    g = t.zero()
    while True:
        rf = RatFunc(num, den)
        if rf.num.is_zero():
            return g, rf.num, rf.den
        num, den = rf.num, rf.den
        target = None
        for v, m in squarefree_decompose(den):
            if m >= 2 and v.degree() > 0 and (target is None or m > target[1]):
                target = (v, m)
        if target is None:
            return g, num, den
        v, m = target
        u = poly_exact_div(den, v ** m)
        dv = t._derive_poly(v, level)
        if poly_gcd(v, dv).degree() > 0:
            raise UnsupportedError(
                "repeated denominator factor is not normal at this level"
            )
        s, t2 = solve_diophantine(u * dv, v, num)
        c_scale = _coeff_const(t, GaussRat(1 - m), level)
        g = g + _elem(t, level, s, (v ** (m - 1)).scale(c_scale))
        ds = t._derive_poly(s, level)
        inv_scale = _coeff_const(t, GaussRat(1) / GaussRat(1 - m), level)
        num = t2 - (u * ds).scale(inv_scale)
        den = u * v ** (m - 1)


# ------------------------------------------------------------ Rothstein-Trager


def _residue_poly(t: Tower, a: Poly, d: Poly, level: int) -> Poly:
    """R(w) = res_theta(d, a - w * D(d)) over the coefficient field below."""
    below = _coeff_field(t, level)
    Lw = FracField(below, "w")
    dd = t._derive_poly(d, level)
    d_w = d.map_coeffs(Lw.from_coeff, field=Lw)
    a_w = a.map_coeffs(Lw.from_coeff, field=Lw)
    dd_w = dd.map_coeffs(Lw.from_coeff, field=Lw)
    b_w = a_w - dd_w.scale(Lw.gen())
    res = resultant(d_w, b_w)
    if res.den.degree() != 0:
        raise AssertionError("resultant of polynomial inputs must be polynomial")
    return res.num.scale_div(res.den.coeff(0))


def _constant_residue_poly(t: Tower, r: Poly, level: int):
    """Monic residue polynomial with every coefficient constant, as a Q(i)
    polynomial, or (None, witness) naming a non-constant coefficient."""
    rm = r.monic()
    if level == 0:
        return Poly(QI, list(rm.coeffs), rm.var), None
    out = []
    for c in rm.coeffs:
        ce = TowerElem(t, level - 1, c)
        if not t.is_formal_constant(ce):
            return None, str(ce)
        if not ce.is_constant():
            raise UnsupportedError(
                "residue involves a transcendental constant; outside Q(i) scope"
            )
        out.append(ce.const_value())
    return Poly(QI, out, rm.var), None


def _rt_rootsum(t: Tower, a: Poly, d: Poly, s_factor: Poly, level: int):
    """Formal root-sum terms for one squarefree factor of the residue
    polynomial: v(a) = gcd(d, a - a_root * D(d)) computed modulo s_factor.
    A discovered splitting of s_factor refines recursively."""
    below = _coeff_field(t, level)
    modulus = s_factor.map_coeffs(
        lambda c: _coeff_const(t, c, level), field=below, var=s_factor.var
    )
    ext = AlgExtField(modulus)
    dd = t._derive_poly(d, level)
    d_e = d.map_coeffs(ext.from_coeff, field=ext)
    a_e = a.map_coeffs(ext.from_coeff, field=ext)
    dd_e = dd.map_coeffs(ext.from_coeff, field=ext)
    shifted = a_e - dd_e.scale(ext.root())
    try:
        v_e = poly_gcd(d_e, shifted)
    except SplitsModulus as exc:
        s1 = _project_constant_factor(t, exc.factor, level)
        s2 = poly_exact_div(s_factor, s1)
        return _rt_rootsum(t, a, d, s1, level) + _rt_rootsum(t, a, d, s2, level)
    L = t.field(level)
    deg_w = max((c.rep.degree() for c in v_e.coeffs), default=0)
    w_coeffs = []
    for k in range(deg_w + 1):
        theta_coeffs = [c.rep.coeff(k) for c in v_e.coeffs]
        w_coeffs.append(L.from_poly(Poly(below, theta_coeffs, L.var)))
    arg = Poly(L, w_coeffs, s_factor.var)
    return [RootSumTerm(s_factor, arg, level)]


def _project_constant_factor(t: Tower, factor: Poly, level: int) -> Poly:
    """A monic factor of a constant-coefficient modulus must itself have
    constant coefficients; project them back to Q(i)."""
    out = []
    for c in factor.monic().coeffs:
        if isinstance(c, GaussRat):
            out.append(c)
            continue
        ce = TowerElem(t, level - 1, c)
        if not ce.is_constant():
            raise UnsupportedError("non-constant factor of a residue polynomial")
        out.append(ce.const_value())
    return Poly(QI, out, factor.var)


def _split_residue_factors(s: Poly) -> list[Poly]:
    """Best-effort factorization of a squarefree residue polynomial with no
    Q(i) roots: polynomials in the square of the variable split through
    u = w^2 when the u-polynomial has rational roots. Quadratic factors get
    explicit radicals at rendering time; anything unresolved stays whole."""
    out: list[Poly] = []
    stack = [s.monic()]
    while stack:
        p = stack.pop()
        if p.degree() <= 2:
            out.append(p)
            continue
        if p.degree() % 2 == 0 and all(
            c.is_zero() for j, c in enumerate(p.coeffs) if j % 2 == 1
        ):
            half = p.degree() // 2
            u_poly = Poly(QI, [p.coeff(2 * j) for j in range(half + 1)], p.var)
            roots, rem_u = gauss_rational_roots(u_poly)
            if roots:
                for r in roots:
                    stack.append(Poly(QI, [-r, QI.zero(), QI.one()], p.var))
                if rem_u.degree() > 0:
                    back = [QI.zero()] * (2 * rem_u.degree() + 1)
                    for j, c in enumerate(rem_u.coeffs):
                        back[2 * j] = c
                    stack.append(Poly(QI, back, p.var))
                continue
        out.append(p)
    return out


def rothstein_trager(t: Tower, g: TowerElem):
    """Log part of a proper fraction with squarefree denominator: returns
    (logs, root_sums), or a ResidueNotConstant certificate when a residue
    fails to be constant."""
    rep = g.rep
    a, d = rep.num, rep.den
    level = g.level
    if a.is_zero():
        return [], []
    if d.degree() == 0:
        raise ValueError("rothstein_trager expects a nonconstant denominator")
    r = _residue_poly(t, a, d, level)
    s_const, witness = _constant_residue_poly(t, r, level)
    if s_const is None:
        return ResidueNotConstant(
            level, f"residue candidate {witness} is not a constant"
        )
    s = squarefree_part(s_const)
    roots, rem = gauss_rational_roots(s)
    dd = t._derive_poly(d, level)
    logs = []
    for rho in roots:
        if rho.is_zero():
            continue
        shifted = a - dd.scale(_coeff_const(t, rho, level))
        v = d.monic() if shifted.is_zero() else poly_gcd(d, shifted)
        logs.append(LogTerm(rho, _elem(t, level, v)))
    rsums = []
    if rem.degree() >= 1:
        for factor in _split_residue_factors(rem):
            rsums.extend(_rt_rootsum(t, a, d, factor, level))
    return logs, rsums


# --------------------------------------------------------- Risch ODE (y'+wy=g)


@dataclass
class _RdeTrace:
    notes: list = dc_field(default_factory=list)

    def add(self, msg: str):
        self.notes.append(msg)


def _multiplicity(p: Poly, v: Poly) -> int:
    m = 0
    while True:
        q, r = poly_divmod(p, v)
        if not r.is_zero():
            return m
        p = q
        m += 1


def _gcd_free_basis(polys: list[Poly]) -> list[Poly]:
    """Pairwise-coprime monic polynomials whose products generate the inputs;
    refinement terminates because every split lowers total degree."""
    work = [p.monic() for p in polys if p.degree() > 0]
    out: list[Poly] = []
    while work:
        p = work.pop()
        if p.degree() == 0:
            continue
        split = False
        for i, q in enumerate(out):
            g = poly_gcd(p, q)
            if g.degree() > 0:
                out.pop(i)
                for part in (g, poly_exact_div(q, g), poly_exact_div(p, g)):
                    if part.degree() > 0:
                        work.append(part.monic())
                split = True
                break
        if not split:
            out.append(p)
    # dedupe identical pieces produced by the refinement
    uniq: list[Poly] = []
    for p in out:
        if not any(p == q for q in uniq):
            uniq.append(p)
    return uniq


def _rde_denominator_bound(t: Tower, w: TowerElem, g: TowerElem,
                           trace: _RdeTrace) -> Poly:
    """Denominator bound for y at the base level: local order analysis at
    each squarefree factor of den(w) * den(g)."""
    den_w = t.lift_rep(w.rep, w.level, 0).den
    den_g = t.lift_rep(g.rep, g.level, 0).den
    E = _one_poly(den_w)
    if (den_w * den_g).degree() == 0:
        return E
    factors = [v for v, _ in squarefree_decompose(den_w) if v.degree() > 0]
    factors += [v for v, _ in squarefree_decompose(den_g) if v.degree() > 0]
    for v in _gcd_free_basis(factors):
        m_w = _multiplicity(den_w, v)
        m_g = _multiplicity(den_g, v)
        if m_w == 0:
            e = max(m_g - 1, 0)
        elif m_w == 1:
            e = max(m_g - 1, 0)
            # cancellation: w ~ alpha * Dv/v near v allows a pole of order alpha
            w_rep = t.lift_rep(w.rep, w.level, 0)
            b_cof = poly_exact_div(den_w, v)
            dv = v.derivative()
            try:
                s, _ = solve_diophantine(b_cof * dv, v, w_rep.num)
                alpha = poly_divmod(s, v)[1]
            except ValueError:
                alpha = None
            if alpha is not None and alpha.degree() == 0:
                val = alpha.coeff(0)
                if val.is_integer() and val.re > 0:
                    e = max(e, int(val.re))
                    trace.add(f"cancellation allows pole order {int(val.re)} at {v}")
            else:
                trace.add(
                    "simple pole of the coefficient with non-constant residue: "
                    "pole bound kept at the inhomogeneity's order"
                )
        else:
            e = max(m_g - m_w, 0)
        if e > 0:
            E = E * v ** e
    return E


def _rde_poly_solve_base(P: Poly, Q: Poly, R: Poly, trace: _RdeTrace):
    """Polynomial Y over Q(i) in x with P*Y' + Q*Y = R, by leading-term
    degree bounds and an exact linear system; None when no solution exists
    within the (tight) bound."""
    if R.is_zero():
        return Poly(QI, [], P.var)
    dP, dQ, dR = P.degree(), Q.degree(), R.degree()
    candidates = []
    if Q.is_zero():
        candidates.append(dR - dP + 1)
    elif dQ > dP - 1:
        candidates.append(dR - dQ)
    elif dQ < dP - 1:
        # Y' drops out only for constant Y, when Q*Y alone meets R
        candidates.append(max(0, dR - dP + 1))
    else:
        candidates.append(dR - dP + 1)
        ratio = -(Q.lc() / P.lc())
        if ratio.is_integer() and ratio.re > 0:
            candidates.append(int(ratio.re))
            trace.add(f"leading-term cancellation possible at degree {int(ratio.re)}")
    n = max(candidates)
    if n < 0:
        trace.add(f"numerator degree bound {n} < 0 forces a contradiction")
        return None
    if n > _max_degree():
        raise DegreeCapExceeded(
            f"Risch ODE degree bound {n} exceeds LIOUVILLE_MAX_DEGREE"
        )
    trace.add(f"numerator degree bound {n}")
    x = Poly.gen(QI, P.var)
    cols = [P * (x ** j).derivative() + Q * x ** j for j in range(n + 1)]
    height = max([c.degree() for c in cols] + [dR]) + 1
    rows = [[c.coeff(m) for c in cols] for m in range(height)]
    rhs = [R.coeff(m) for m in range(height)]
    sol = linear_solve(rows, rhs, QI)
    if sol is None:
        trace.add(f"linear system inconsistent at degree bound {n}")
        return None
    return Poly(QI, sol, P.var)


def _solve_rde_level(t: Tower, w: TowerElem, g: TowerElem, level: int,
                     trace: _RdeTrace):
    """Solution y of y' + w*y = g in the level-`level` field, or None."""
    if g.is_zero():
        return t.zero()
    if level == 0:
        E = _rde_denominator_bound(t, w, g, trace)
        E_elem = _elem(t, 0, E)
        if E.degree() > 0:
            trace.add(f"denominator bound {E_elem}")
        w2 = w - t.derive(E_elem) / E_elem
        g2 = g * E_elem
        w_rep = t.lift_rep(w2.rep, w2.level, 0)
        g_rep = t.lift_rep(g2.rep, g2.level, 0)
        lden = poly_exact_div(w_rep.den * g_rep.den, poly_gcd(w_rep.den, g_rep.den))
        P = lden
        Q = w_rep.num * poly_exact_div(lden, w_rep.den)
        R = g_rep.num * poly_exact_div(lden, g_rep.den)
        Y = _rde_poly_solve_base(P, Q, R, trace)
        if Y is None:
            return None
        y = _elem(t, 0, Y, E)
        if not (t.derive(y) + w * y - g).is_zero():
            raise ArithmeticError(f"base-level Risch ODE solution {y} does not solve it")
        return y
    mono = t.monomial_at(level)
    w_rep = t.lift_rep(w.rep, w.level, level)
    g_rep = t.lift_rep(g.rep, g.level, level)
    if w_rep.den.degree() > 0 or g_rep.den.degree() > 0:
        raise UnsupportedError(
            "Risch ODE with denominators in an inner monomial is outside the "
            "supported tower shape"
        )
    W, G = w_rep.num, g_rep.num
    if W.is_zero():
        raise UnsupportedError("homogeneous-free Risch ODE at an inner level")
    theta = t.theta(level)
    if W.degree() >= 1:
        # w has positive degree in the inner monomial: no derivative-term
        # cancellation is possible, so peel leading coefficients by division
        y = t.zero()
        dw = W.degree()
        guard = 0
        G_cur = G
        while not G_cur.is_zero() and G_cur.degree() >= dw:
            guard += 1
            if guard > _max_degree():
                raise DegreeCapExceeded("Risch ODE division loop exceeded cap")
            k = G_cur.degree() - dw
            c = G_cur.lc() / W.lc()
            piece = _elem(
                t, level, Poly(W.field, [W.field.zero()] * k + [c], W.var)
            )
            y = y + piece
            resid = g - (t.derive(y) + w * y)
            resid_rep = t.lift_rep(resid.rep, resid.level, level)
            if resid_rep.den.degree() > 0:
                trace.add("division residual leaves the polynomials")
                return None
            G_cur = resid_rep.num
        if G_cur.is_zero():
            return y
        trace.add(
            f"residual of degree {G_cur.degree()} below the leading divisor "
            f"degree {dw} cannot be matched"
        )
        return None
    w_below = TowerElem(t, level - 1, W.coeff(0))
    n = G.degree()
    if n > _max_degree():
        raise DegreeCapExceeded("Risch ODE coefficient recursion exceeded cap")
    if mono.kind == "exp":
        db = t.monomial_dlog(level)
        y = t.zero()
        for j in range(n, -1, -1):
            gj = TowerElem(t, level - 1, G.coeff(j))
            if gj.is_zero():
                continue
            yj = _solve_rde_level(t, w_below + db * j, gj, level - 1, trace)
            if yj is None:
                trace.add(f"coefficient of power {j} unsolvable one level down")
                return None
            y = y + yj * theta ** j
        if not (t.derive(y) + w * y - g).is_zero():
            raise ArithmeticError(f"Risch ODE solution {y} at level {level} does not solve it")
        return y
    dtheta = t.monomial_dlog(level)
    trace.add("degree bound in the log monomial taken from the right-hand side")
    y = t.zero()
    prev = t.zero()
    for j in range(n, -1, -1):
        gj = TowerElem(t, level - 1, G.coeff(j)) - dtheta * prev * (j + 1)
        yj = _solve_rde_level(t, w_below, gj, level - 1, trace)
        if yj is None:
            trace.add(f"coefficient of power {j} unsolvable one level down")
            return None
        y = y + yj * theta ** j
        prev = yj
    resid = g - (t.derive(y) + w * y)
    if not resid.is_zero():
        trace.add("residual after coefficient recursion is nonzero")
        return None
    return y


# --------------------------------------------------------------- polynomial part


def _integrate_base_poly(t: Tower, p: Poly) -> TowerElem:
    coeffs = [QI.zero()]
    for j, c in enumerate(p.coeffs):
        coeffs.append(c / QI.from_int(j + 1))
    return _elem(t, 0, Poly(QI, coeffs, p.var))


def integrate_polypart_log(t: Tower, p: Poly, level: int):
    """Integrate a polynomial in a log monomial: antiderivative of degree
    deg(p) + 1 with constant top coefficient, found by equating theta-power
    coefficients downward, integrating one level below at each step."""
    dtheta = t.monomial_dlog(level)
    theta = t.theta(level)
    r0 = t.zero()
    p_cur = p
    guard = 0
    while p_cur.degree() > 0:
        guard += 1
        if guard > _max_degree():
            raise DegreeCapExceeded("log polynomial recursion exceeded cap")
        m = p_cur.degree()
        a_top = TowerElem(t, level - 1, p_cur.coeff(m))
        sub = _integrate(t, a_top)
        if _is_cert(sub):
            return LogDegreeObstruction(
                level,
                detail=f"coefficient of the degree-{m} term has no elementary integral",
                inner=sub,
            )
        total = _logs_dlog(t, sub.logs, sub.root_sums)
        if total.is_zero():
            c = GaussRat(0)
        else:
            ratio = total / dtheta
            if not ratio.is_constant():
                return LogDegreeObstruction(
                    level,
                    detail=(
                        f"integral of the degree-{m} coefficient introduces a "
                        "logarithm that is not a constant multiple of the monomial"
                    ),
                )
            c = ratio.const_value()
        q_piece = sub.r0 * theta ** m + t.const(c / GaussRat(m + 1)) * theta ** (m + 1)
        r0 = r0 + q_piece
        dq = t.derive(q_piece)
        dq_rep = t.lift_rep(dq.rep, dq.level, level)
        if dq_rep.den.degree() != 0:
            raise ArithmeticError("derivative of a log-polynomial piece is not polynomial")
        p_cur = p_cur - dq_rep.num.scale_div(dq_rep.den.coeff(0))
        if p_cur.degree() >= m:
            raise ArithmeticError(f"log-polynomial recursion did not lower degree {m}")
    c0 = TowerElem(t, level - 1, p_cur.coeff(0))
    sub = _integrate(t, c0)
    if _is_cert(sub):
        return sub
    return r0 + sub.r0, list(sub.logs), list(sub.root_sums)


def _integrate_degenerate_poly(t: Tower, p: Poly, level: int):
    """Polynomial in a constant-argument monomial: integrate coefficients
    independently; only the constant term may contribute logarithms."""
    theta = t.theta(level)
    r0 = t.zero()
    logs: list[LogTerm] = []
    rsums: list[RootSumTerm] = []
    for j in range(p.degree(), -1, -1):
        cj = TowerElem(t, level - 1, p.coeff(j))
        if cj.is_zero():
            continue
        sub = _integrate(t, cj)
        if _is_cert(sub):
            return sub
        if j == 0:
            r0 = r0 + sub.r0
            logs.extend(sub.logs)
            rsums.extend(sub.root_sums)
        else:
            if sub.logs or sub.root_sums:
                raise UnsupportedError(
                    "logarithmic coefficient attached to a transcendental "
                    "constant power is outside Q(i) scope"
                )
            r0 = r0 + sub.r0 * theta ** j
    return r0, logs, rsums


# --------------------------------------------------------------- main recursion


def _integrate_proper(t: Tower, num: Poly, den: Poly, level: int):
    """Hermite + log part for a proper reduced fraction. Returns (r0, logs,
    rsums, Hermite remainder) or a certificate. remainder - d(log part) is
    zero by theorem at level 0 and under a log monomial; under an exp one it
    is theta-free and rejoins the polynomial part."""
    if num.is_zero():
        return t.zero(), [], [], t.zero()
    rat_part, rn, rd = _hermite(t, num, den, level)
    if rn.is_zero():
        return rat_part, [], [], t.zero()
    remainder = _elem(t, level, rn, rd)
    rt = rothstein_trager(t, remainder)
    if _is_cert(rt):
        return rt
    logs, rsums = rt
    return rat_part, logs, rsums, remainder


def _integrate(t: Tower, f: TowerElem):
    """Core recursion: LiouvilleForm parts (not yet combined) or a
    certificate."""
    if f.is_zero():
        return LiouvilleForm(t.zero())
    if t.is_formal_constant(f):
        # a constant, possibly formal (built from log/exp of constants),
        # decided structurally: sound since no monomial adds new constants
        return LiouvilleForm(f * t.x())
    level = f.level
    if level == 0:
        rep = f.rep
        pp, rem_num = poly_divmod(rep.num, rep.den)
        out = _integrate_proper(t, rem_num, rep.den, 0)
        if _is_cert(out):
            return out
        rat_part, logs, rsums, _ = out
        return LiouvilleForm(
            _integrate_base_poly(t, pp) + rat_part, tuple(logs), tuple(rsums)
        )
    mono = t.monomial_at(level)
    degenerate = _is_degenerate(t, level)
    rep = f.rep
    pp, rem_num = poly_divmod(rep.num, rep.den)
    den = rep.den
    if degenerate:
        if den.degree() > 0:
            raise UnsupportedError(
                "rational dependence on a transcendental constant is unsupported"
            )
        out = _integrate_degenerate_poly(t, pp.scale_div(den.coeff(0)), level)
        if _is_cert(out):
            return out
        r0, logs, rsums = out
        return LiouvilleForm(r0, tuple(logs), tuple(rsums))
    laurent: dict[int, TowerElem] = {}
    if mono.kind == "exp":
        k = 0
        while k < len(den.coeffs) and den.coeffs[k].is_zero():
            k += 1
        if k > 0:
            below = _coeff_field(t, level)
            d1 = Poly(below, den.coeffs[k:], den.var)
            theta_k = Poly(below, [below.zero()] * k + [below.one()], den.var)
            s, t2 = solve_diophantine(theta_k, d1, rem_num)
            # rem/(theta^k d1) = s/d1 + t2/theta^k with deg t2 < k
            if t2.degree() >= k:
                raise ArithmeticError(f"Laurent part has degree {t2.degree()}, not below {k}")
            for j, c in enumerate(t2.coeffs):
                if not c.is_zero():
                    laurent[j - k] = TowerElem(t, level - 1, c)
            rf = RatFunc(s, d1)
            rem_num, den = rf.num, rf.den
    out = _integrate_proper(t, rem_num, den, level)
    if _is_cert(out):
        return out
    r0, logs, rsums, remainder = out
    logs = list(logs)
    rsums = list(rsums)
    if mono.kind == "log":
        res = integrate_polypart_log(t, pp, level)
        if _is_cert(res):
            return res
        q_poly, logs2, rsums2 = res
        return LiouvilleForm(
            r0 + q_poly, tuple(logs + logs2), tuple(rsums + rsums2)
        )
    # exponential monomial
    mismatch = remainder - _logs_dlog(t, logs, rsums)
    if not mismatch.is_zero():
        if mismatch.level >= level:
            raise ArithmeticError("log-part mismatch must be theta-free")
        laurent[0] = laurent.get(0, t.zero()) + mismatch
    for j, c in enumerate(pp.coeffs):
        if j > 0 and not c.is_zero():
            laurent[j] = laurent.get(j, t.zero()) + TowerElem(t, level - 1, c)
    if pp.coeffs and not pp.coeff(0).is_zero():
        laurent[0] = laurent.get(0, t.zero()) + TowerElem(t, level - 1, pp.coeff(0))
    db = t.monomial_dlog(level)
    theta = t.theta(level)
    for j in sorted(laurent):
        cj = laurent[j]
        if j == 0 or cj.is_zero():
            continue
        trace = _RdeTrace()
        y = _solve_rde_level(t, db * j, cj, level - 1, trace)
        if y is None:
            return RischOdeUnsolvable(
                level,
                ode=f"y' + ({db * j})*y = {cj}",
                trace=tuple(trace.notes),
                w=db * j,
                g=cj,
            )
        r0 = r0 + y * theta ** j
    c0 = laurent.get(0, t.zero())
    if not c0.is_zero():
        sub = _integrate(t, c0)
        if _is_cert(sub):
            return sub
        r0 = r0 + sub.r0
        logs += list(sub.logs)
        rsums += list(sub.root_sums)
    return LiouvilleForm(r0, tuple(logs), tuple(rsums))


def integrate(t: Tower, f: TowerElem):
    """Antiderivative of f in Liouville normal form, or a NonElementary
    certificate naming the obstruction."""
    out = _integrate(t, f)
    if _is_cert(out):
        return NonElementary(out, tuple(t.assumptions()))
    return combine(t, [out.r0], list(out.logs), list(out.root_sums))
