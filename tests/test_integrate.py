"""Integrator tests: Hermite, Rothstein-Trager, polynomial parts, the Risch
ODE solver, certificates, and end-to-end corpus integrals.

Every expected value was either worked by hand (differentiating the claimed
antiderivative) or computed with the independent brute-force / residue
oracles in this file, then frozen.
"""
import importlib
import io
import json
import os
import random
import signal
from fractions import Fraction

import pytest

from liouville.algebra.extension import AlgExtField, power_sums
from liouville.algebra.gaussian import GaussRat, QI
from liouville.algebra.poly import Poly, squarefree_decompose
from liouville.cli import RunConfig, run as cli_run
from liouville.syntax import parse
from liouville.tower import Tower, TowerElem, build_tower
from liouville.integrate import (
    LiouvilleForm, LogTerm, NonElementary, RootSumTerm,
    ResidueNotConstant, RischOdeUnsolvable, LogDegreeObstruction,
    integrate, hermite_reduce, rothstein_trager, integrate_polypart_log,
    solve_rde, combine, form_derivative, _rootsum_dlog, _logs_dlog,
)

# the package re-exports the function integrate under the module's name
integrate_mod = importlib.import_module("liouville.integrate")
poly_mod = importlib.import_module("liouville.algebra.poly")
extension_mod = importlib.import_module("liouville.algebra.extension")


def build(text):
    return build_tower(parse(text))


def run(text):
    t, f = build(text)
    return t, f, integrate(t, f)


def assert_verified(t, f, res):
    assert isinstance(res, LiouvilleForm), res
    assert (form_derivative(t, res) - f).is_zero()


# ----------------------------------------------------------- brute RDE oracle


def _frac_solve(rows, rhs):
    """Tiny Fraction Gauss-Jordan, independent of the package's solver."""
    m, n = len(rows), len(rows[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    pivots = []
    for c in range(n):
        piv = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [v - f * w for v, w in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
    for k in range(r, m):
        if aug[k][n] != 0:
            return None
    out = [Fraction(0)] * n
    for idx, c in enumerate(pivots):
        out[c] = aug[idx][n]
    return out


def brute_rde_poly_solution(P, Q, R, max_deg=10, min_deg=0):
    """Search for polynomial y with P*y' + Q*y = R over Q, coefficients as
    Fraction lists (index = degree). Returns coefficients or None."""
    for n in range(min_deg, max_deg + 1):
        height = max(len(P) + n, len(Q) + n + 1, len(R)) + 1
        rows = [[Fraction(0)] * (n + 1) for _ in range(height)]
        for j in range(n + 1):
            # contribution of y_j x^j: P * j x^(j-1) + Q * x^j
            if j > 0:
                for a, pc in enumerate(P):
                    rows[a + j - 1][j] += Fraction(j) * pc
            for a, qc in enumerate(Q):
                rows[a + j][j] += qc
        rhs = [R[m] if m < len(R) else Fraction(0) for m in range(height)]
        sol = _frac_solve(rows, rhs)
        if sol is not None:
            return sol
    return None


def test_brute_oracle_sanity():
    # y' + y = x has solution x - 1
    assert brute_rde_poly_solution([Fraction(1)], [Fraction(1)], [Fraction(0), Fraction(1)]) is not None
    # y' + 2x y = 1 has no polynomial solution up to degree 10
    assert brute_rde_poly_solution([Fraction(1)], [Fraction(0), Fraction(2)], [Fraction(1)]) is None
    # x y' + x y = 1 (cleared form of y' + y = 1/x): none
    assert brute_rde_poly_solution([Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)], [Fraction(1)]) is None


# ------------------------------------------------------------------- Hermite


def test_hermite_examples():
    t = Tower("x")
    x = t.x()
    f = 1 / (x * x + 1) ** 2
    rat, rem = hermite_reduce(t, f)
    assert (rat - x / ((x * x + 1) * 2)).is_zero()
    assert (rem - t.const(GaussRat(Fraction(1, 2))) / (x * x + 1)).is_zero()
    # squarefree denominator: untouched
    g = 1 / (x * x + 1)
    rat, rem = hermite_reduce(t, g)
    assert rat.is_zero() and (rem - g).is_zero()
    # 1/x^2 -> (-1/x, 0)
    rat, rem = hermite_reduce(t, 1 / (x * x))
    assert (rat + 1 / x).is_zero() and rem.is_zero()


def test_hermite_postcondition_random():
    rng = random.Random(59)
    t = Tower("x")
    F0 = t.field(0)
    for _ in range(120):
        dens = []
        for _ in range(rng.randint(1, 2)):
            p = F0.poly([GaussRat(rng.randint(-3, 3)) for _ in range(rng.randint(2, 3))])
            if p.degree() >= 1:
                dens.append((p.monic(), rng.randint(1, 3)))
        if not dens:
            continue
        den = F0.poly([GaussRat(1)])
        for p, m in dens:
            den = den * p ** m
        if den.degree() < 1:
            continue
        num = F0.poly([GaussRat(rng.randint(-4, 4)) for _ in range(den.degree())])
        if num.is_zero():
            continue
        from liouville.algebra.ratfunc import RatFunc
        from liouville.tower import TowerElem
        f = TowerElem(t, 0, RatFunc(num, den))
        if f.rep.num.degree() >= f.rep.den.degree():
            continue
        rat, rem = hermite_reduce(t, f)
        # exact identity f = D(rat) + rem
        assert (t.derive(rat) + rem - f).is_zero()
        # remainder denominator squarefree
        for _, m in squarefree_decompose(rem.rep.den):
            assert m == 1


# ----------------------------------------------------------- Rothstein-Trager


def test_rt_examples():
    t = Tower("x")
    x = t.x()
    logs, rsums = rothstein_trager(t, 1 / (x * x - 1))
    got = {(str(term.coeff), str(term.arg)) for term in logs}
    assert got == {("1/2", "x - 1"), ("-1/2", "x + 1")}
    assert not rsums

    logs, rsums = rothstein_trager(t, 2 * x / (x * x + 1))
    assert len(logs) == 1 and not rsums
    assert logs[0].coeff == GaussRat(1)
    assert (logs[0].arg - (x * x + 1)).is_zero()

    logs, rsums = rothstein_trager(t, 1 / x)
    assert len(logs) == 1
    assert logs[0].coeff == GaussRat(1) and (logs[0].arg - x).is_zero()


def test_rt_residue_constancy_random():
    """Residues emitted at a log level are always exact constants; inputs
    engineered to have non-constant residues certify instead."""
    rng = random.Random(61)
    t, _ = build("log(x)")
    th = t.theta(1)
    x = t.x()
    constant_count = 0
    cert_count = 0
    for _ in range(40):
        # constant-residue family: lam1 dlog(v1) + lam2 dlog(v2)
        lam1, lam2 = rng.randint(1, 4), rng.randint(-4, -1)
        v1 = th + x * rng.randint(1, 3)
        v2 = th - rng.randint(1, 3)
        f = t.derive(v1) / v1 * lam1 + t.derive(v2) / v2 * lam2
        out = rothstein_trager(t, f)
        assert not isinstance(out, ResidueNotConstant), str(f)
        logs, rsums = out
        for term in logs:
            assert isinstance(term.coeff, GaussRat)  # exact constant by type
        total = sum(
            (t.const(term.coeff) * t.derive(term.arg) / term.arg for term in logs),
            t.zero(),
        )
        assert (total - f).is_zero()
        constant_count += 1
    for _ in range(40):
        # non-constant residue family: x-dependent numerator over theta
        c = rng.randint(1, 4)
        f = (x * c) / th
        out = rothstein_trager(t, f)
        assert isinstance(out, ResidueNotConstant)
        cert_count += 1
    assert constant_count == 40 and cert_count == 40


def test_rt_certificate_for_one_over_log():
    t, f = build("1/log(x)")
    out = rothstein_trager(t, f)
    assert isinstance(out, ResidueNotConstant)
    assert "x" in out.detail


# ------------------------------------------------------------ log poly part


def test_polypart_log_examples():
    t, _ = build("log(x)")
    F1 = t.field(1)
    th = t.theta(1)
    x = t.x()
    below = t.field(0)

    # p = theta: integral x*theta - x
    p = F1.poly([below.zero(), below.one()])
    r0, logs, rsums = integrate_polypart_log(t, p, 1)
    assert (r0 - (x * th - x)).is_zero() and not logs and not rsums

    # p = 1 -> x
    p = F1.poly([below.one()])
    r0, logs, rsums = integrate_polypart_log(t, p, 1)
    assert (r0 - x).is_zero()

    # p = theta/x -> theta^2/2
    p = F1.poly([below.zero(), below.gen().inv()])
    r0, logs, rsums = integrate_polypart_log(t, p, 1)
    assert (r0 - th * th / 2).is_zero() and not logs


# ---------------------------------------------------------------- Risch ODE


def test_rde_examples():
    t, _ = build("exp(x)")
    x = t.x()
    one = t.one()
    y = solve_rde(t, one, x)
    assert not isinstance(y, RischOdeUnsolvable)
    assert (y - (x - 1)).is_zero()

    out = solve_rde(t, x * 2, one)
    assert isinstance(out, RischOdeUnsolvable)
    assert any("degree bound" in note for note in out.trace)


def test_rde_round_trip_random():
    rng = random.Random(67)
    t = Tower("x")
    F0 = t.field(0)
    from liouville.algebra.ratfunc import RatFunc
    from liouville.tower import TowerElem

    def rand_rf(max_deg=3):
        num = F0.poly([GaussRat(rng.randint(-3, 3)) for _ in range(rng.randint(1, max_deg + 1))])
        den = F0.poly([GaussRat(rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))])
        while den.is_zero():
            den = F0.poly([GaussRat(rng.randint(-2, 2)) for _ in range(2)])
        return TowerElem(t, 0, RatFunc(num, den))

    done = 0
    while done < 40:
        y0 = rand_rf()
        w = rand_rf(2)
        if w.is_zero():
            continue
        g = t.derive(y0) + w * y0
        if g.is_zero():
            continue
        y = solve_rde(t, w, g)
        assert not isinstance(y, RischOdeUnsolvable), (str(w), str(g), y.trace)
        assert (t.derive(y) + w * y - g).is_zero()
        done += 1


def _list_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _list_add(a, b):
    n = max(len(a), len(b))
    return [(a[j] if j < len(a) else 0) + (b[j] if j < len(b) else 0) for j in range(n)]


def brute_rde_rational_solution(P, Q, R, max_pole=2):
    """Search for y = Y / P^k, k <= max_pole, with P*y' + Q*y = R: then Y is
    a polynomial with P*Y' + (Q - k*P')*Y = R*P^k. Returns (k, Y) or None.
    A polynomial solution of degree n also solves the system at any larger
    degree bound, so one bound per k decides existence."""
    dP = [j * c for j, c in enumerate(P)][1:] or [Fraction(0)]
    Rk = list(R)
    for k in range(max_pole + 1):
        Qk = _list_add(Q, [-k * c for c in dP])
        bound = 6 + k * (len(P) - 1)
        sol = brute_rde_poly_solution(P, Qk, Rk, max_deg=bound, min_deg=bound)
        if sol is not None:
            return k, sol
        Rk = _list_mul(Rk, P)
    return None


def test_rde_agrees_with_brute_force():
    """Random base-level instances P*y' + Q*y = R with P of degree 0 to 3,
    so that w = Q/P and g = R/P may have poles, and Q, R of degree at most
    4; R is random or made from a polynomial solution of degree 0 to 2.
    The solver and the brute-force search agree on solvability."""
    rng = random.Random(71)
    t = Tower("x")
    F0 = t.field(0)
    from liouville.algebra.ratfunc import RatFunc

    def ints(lo_len, hi_len):
        return [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(lo_len, hi_len))]

    def elem(num, den):
        return TowerElem(t, 0, RatFunc(F0.poly([GaussRat(v) for v in num]),
                                       F0.poly([GaussRat(v) for v in den])))

    checked = solvable = 0
    while checked < 80:
        P = ints(1, 4)
        Q = ints(1, 5)
        if rng.random() < 0.5:
            R = ints(1, 5)
        else:
            y0 = ints(1, 3)
            dy0 = [j * c for j, c in enumerate(y0)][1:] or [Fraction(0)]
            R = _list_add(_list_mul(P, dy0), _list_mul(Q, y0))
        if not any(P) or not any(Q) or not any(R):
            continue
        ours = solve_rde(t, elem(Q, P), elem(R, P))
        brute = brute_rde_rational_solution(P, Q, R)
        if isinstance(ours, RischOdeUnsolvable):
            assert brute is None, (P, Q, R, brute)
        else:
            assert brute is not None, (P, Q, R, str(ours))
            solvable += 1
        checked += 1
    assert 20 <= solvable <= 60


# ------------------------------------------------------------------- corpus


CORPUS_ELEMENTARY = [
    "1/x",
    "2*x/(x^2+1)",
    "1/(x^2-1)",
    "1/(x^2+1)^2",
    "log(x)",
    "1/(x*log(x))",
    "log(x)/x",
    "x*exp(x)",
]

CORPUS_NON_ELEMENTARY = {
    "exp(x^2)": RischOdeUnsolvable,
    "exp(x)/x": RischOdeUnsolvable,
    "1/log(x)": ResidueNotConstant,
}


def test_corpus_elementary_verified():
    for text in CORPUS_ELEMENTARY:
        t, f, res = run(text)
        assert_verified(t, f, res)
        # normal-form shape: exact constant coefficients on the logs
        for term in res.logs:
            assert isinstance(term.coeff, GaussRat)
        for rs in res.root_sums:
            assert rs.poly.field is QI or rs.poly.field == QI


def test_corpus_expected_forms():
    t, f, res = run("log(x)")
    th = t.theta(1)
    assert (res.r0 - (t.x() * th - t.x())).is_zero() and not res.logs

    t, f, res = run("1/(x*log(x))")
    assert res.r0.is_zero() and len(res.logs) == 1
    assert res.logs[0].coeff == GaussRat(1)
    assert (res.logs[0].arg - t.theta(1)).is_zero()

    t, f, res = run("log(x)/x")
    th = t.theta(1)
    assert (res.r0 - th * th / 2).is_zero() and not res.logs

    t, f, res = run("x*exp(x)")
    th = t.theta(1)
    assert (res.r0 - (t.x() - 1) * th).is_zero() and not res.logs

    t, f, res = run("1/(x^2+1)^2")
    x = t.x()
    assert (res.r0 - x / ((x * x + 1) * 2)).is_zero()
    lams = sorted(str(term.coeff) for term in res.logs)
    assert lams == ["-i/4", "i/4"]


def test_corpus_certificates():
    t, f, res = run("exp(x^2)")
    assert isinstance(res, NonElementary)
    cert = res.certificate
    assert isinstance(cert, RischOdeUnsolvable)
    assert "2*x" in cert.ode
    # independent re-check: y' + 2x y = 1 has no polynomial solution
    assert brute_rde_poly_solution(
        [Fraction(1)], [Fraction(0), Fraction(2)], [Fraction(1)]
    ) is None

    t, f, res = run("exp(x)/x")
    cert = res.certificate
    assert isinstance(cert, RischOdeUnsolvable)
    assert brute_rde_poly_solution(
        [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)], [Fraction(1)]
    ) is None

    t, f, res = run("1/log(x)")
    assert isinstance(res.certificate, ResidueNotConstant)


def test_log_degree_obstruction_kind():
    t, f, res = run("log(log(x))")
    assert isinstance(res, NonElementary)
    # the inner obstruction is the non-integrable 1/log(x) constant term
    assert isinstance(res.certificate, (LogDegreeObstruction, ResidueNotConstant))


# ------------------------------------------------------------------ root sums


def test_root_sum_cubic():
    t, f, res = run("1/(x^3-2)")
    assert isinstance(res, LiouvilleForm)
    assert len(res.root_sums) == 1
    rs = res.root_sums[0]
    # residue polynomial w^3 - 1/108: residues 1/(3 a^2) over a^3 = 2
    expected = Poly(QI, [GaussRat(Fraction(-1, 108)), QI.zero(), QI.zero(), QI.one()], "w")
    assert rs.poly == expected
    assert_verified(t, f, res)


def test_root_sum_quadratic_radical():
    t, f, res = run("1/(x^2-2)")
    assert isinstance(res, LiouvilleForm)
    assert len(res.root_sums) == 1
    assert res.root_sums[0].poly.degree() == 2
    assert_verified(t, f, res)


def test_root_sum_dlog_matches_integrand():
    t, f, res = run("1/(x^3-2)")
    total = _rootsum_dlog(t, res.root_sums[0])
    assert (total - f).is_zero()


def _rootsum_dlog_by_inversion(t, rs):
    """Reference for _rootsum_dlog: sum over the roots a of S of
    a * D(v(a)) / v(a), computed by inverting v in K(theta)[a]/(S) and
    reducing the trace with Newton power sums."""
    level = rs.level
    L = t.field(level)
    modulus = rs.poly.map_coeffs(
        lambda c: t.lift_rep(t.field(0).from_coeff(c), 0, level),
        field=L, var=rs.poly.var,
    )
    ext = AlgExtField(modulus)
    v = ext.from_poly(rs.arg)
    dv = ext.from_poly(
        Poly(L, [t._derive_rep(c, level) for c in v.rep.coeffs], v.rep.var)
    )
    w = ext.root() * dv * v.inv()
    psums = power_sums(rs.poly, max(rs.poly.degree() - 1, w.rep.degree()))
    acc = t.zero()
    for k, coeff in enumerate(w.rep.coeffs):
        if not coeff.is_zero():
            acc = acc + TowerElem(t, level, coeff) * t.const(psums[k])
    return acc


# integrands whose log part is one or more root sums above level 0
ROOT_SUM_LEVEL_1 = [
    "1/(x*(log(x)^3-2))",
    "exp(x)/(exp(x)^3-2)",
    "1/(x*(log(x)^5+log(x)+1))",
]


def _seeded_level0_root_sums():
    """Root sums of residue degree 2 to 6 from seeded rational integrands
    over irreducible (Eisenstein at 3) denominators, plus the Hermite-reduced
    (x^4+1)/(x^6+x^3+2)^3."""
    rng = random.Random(83)
    t = Tower("x")
    x = t.x()
    out = []
    for d in range(2, 7):
        den = x ** d + rng.choice((-6, -3, 3, 6))
        for k in range(1, d):
            den = den + x ** k * (3 * rng.randint(-1, 1))
        num = t.from_int(rng.choice((-2, -1, 1, 2)))
        for k in range(1, d):
            num = num + x ** k * rng.randint(-2, 2)
        res = integrate(t, num / den)
        out.extend((t, rs) for rs in res.root_sums)
    t, _, res = run("(x^4+1)/(x^6+x^3+2)^3")
    out.extend((t, rs) for rs in res.root_sums)
    return out


def _root_sum_cases():
    cases = _seeded_level0_root_sums()
    for text in ROOT_SUM_LEVEL_1:
        t, _, res = run(text)
        assert res.root_sums and all(rs.level == 1 for rs in res.root_sums), text
        cases.extend((t, rs) for rs in res.root_sums)
    return cases


def test_rootsum_dlog_equals_inversion_reference():
    cases = _root_sum_cases()
    assert {rs.poly.degree() for t, rs in cases if rs.level == 0} == {2, 3, 4, 5, 6}
    for t, rs in cases:
        assert _rootsum_dlog(t, rs) == _rootsum_dlog_by_inversion(t, rs), str(rs.arg)


def test_rootsum_dlog_takes_no_inverse(monkeypatch):
    """The norm-and-trace derivative never reaches the extended gcd that an
    inverse in K(theta)[a]/(S) would need."""
    cases = _root_sum_cases()

    def forbidden(*args):
        raise AssertionError("extended_gcd called while differentiating a root sum")

    monkeypatch.setattr(poly_mod, "extended_gcd", forbidden)
    monkeypatch.setattr(extension_mod, "extended_gcd", forbidden)
    for t, rs in cases:
        assert not _rootsum_dlog(t, rs).is_zero()


def test_rootsum_dlog_rejects_non_monic_argument():
    t, _, res = run("1/(x^3-2)")
    rs = res.root_sums[0]
    doubled = RootSumTerm(rs.poly, rs.arg.scale(t.field(0).from_int(2)), rs.level)
    with pytest.raises(ArithmeticError):
        _rootsum_dlog(t, doubled)


def _check_log_part_theorem(monkeypatch, integrands):
    """Integrate each (tower, f) while recording every Rothstein-Trager call.
    At level 0 and under a logarithmic monomial, the exact derivative of the
    log part must equal the Hermite remainder it was computed from (the
    integrator relies on this and does not recompute it there). Returns the
    number of calls checked."""
    calls = []
    original = integrate_mod.rothstein_trager

    def recorded(t, remainder):
        out = original(t, remainder)
        calls.append((t, remainder, out))
        return out

    monkeypatch.setattr(integrate_mod, "rothstein_trager", recorded)
    for t, f in integrands:
        res = integrate(t, f)
        assert isinstance(res, LiouvilleForm), str(f)
    checked = 0
    for t, remainder, out in calls:
        level = remainder.level
        if level > 0 and t.monomial_at(level).kind != "log":
            continue
        assert isinstance(out, tuple), out
        logs, rsums = out
        assert (_logs_dlog(t, logs, rsums) - remainder).is_zero(), str(remainder)
        checked += 1
    return checked


def test_log_part_derivative_is_remainder_on_corpus(monkeypatch):
    corpus = os.path.join(os.path.dirname(__file__), "..", "corpus", "basic.txt")
    with open(corpus, encoding="utf-8") as fh:
        entries = [line.split(";") for line in fh if ";" in line and not line.startswith("#")]
    integrands = [build(text.strip()) for text, verdict, *_ in entries
                  if verdict.strip() == "elementary"]
    assert len(integrands) == 15
    assert _check_log_part_theorem(monkeypatch, integrands) == 6


def rational_shapes():
    """Seeded rational shapes as (tower, integrand): Hermite reduction under
    repeated factors, root sums over Eisenstein denominators (irreducible at
    the prime 3) and a squared sparse sextic, where Hermite and a root sum
    meet."""
    rng = random.Random(79)
    t = Tower("x")
    x = t.x()

    dens = []
    for i in range(4):
        q = x * x + x * rng.randint(-1, 1) + rng.randint(1, 3)
        dens.append(q ** (2 + i % 2) * (x + rng.randint(1, 4)) ** (1 + i // 2))
    for d in (3, 4, 5):
        eis = x ** d + rng.choice((-6, -3, 3, 6))
        for k in range(1, d):
            eis = eis + x ** k * (3 * rng.randint(-1, 1))
        dens.append(eis)
    dens.append((x ** 6 + x ** 3 + 2) ** 2)
    return [(t, (x * x + x * rng.randint(-3, 3) + rng.randint(-3, 3)) / den)
            for den in dens]


def test_log_part_derivative_is_remainder_on_rational_shapes(monkeypatch):
    integrands = rational_shapes()
    assert len(integrands) == 8
    assert _check_log_part_theorem(monkeypatch, integrands) == len(integrands)


# -------------------------------------------------------------------- combine


def test_combine_merges_equal_args():
    t = Tower("x")
    x = t.x()
    term = LogTerm(GaussRat(1), x - 1)
    out = combine(t, [t.zero()], [term, term], [])
    assert len(out.logs) == 1
    assert out.logs[0].coeff == GaussRat(2)


def test_combine_cancels_r0():
    t = Tower("x")
    x = t.x()
    out = combine(t, [x, -x], [], [])
    assert out.r0.is_zero()


def test_combine_proportional_merge():
    # (1/2) log(x^2) plus log(x) merges to 2 log(x) worth of derivative
    t = Tower("x")
    x = t.x()
    half = GaussRat(Fraction(1, 2))
    out = combine(t, [t.zero()], [LogTerm(half, x * x), LogTerm(GaussRat(1), x)], [])
    assert len(out.logs) == 1
    d = form_derivative(t, out)
    assert (d - 2 / x).is_zero()


def test_combine_folds_exp_power_args():
    # log(exp(x)^2) contributes 2x to r0
    t, _ = build("exp(x)")
    th = t.theta(1)
    out = combine(t, [t.zero()], [LogTerm(GaussRat(1), th * th)], [])
    assert not out.logs
    assert (out.r0 - t.x() * 2).is_zero()


# ------------------------------------------------------------------ linearity


def test_linearity_samples():
    rng = random.Random(73)
    for _ in range(10):
        a = rng.choice(CORPUS_ELEMENTARY)
        b = rng.choice(CORPUS_ELEMENTARY)
        text = f"2*({a}) + 3*({b})"
        t, f = build(text)
        res = integrate(t, f)
        assert_verified(t, f, res)


def test_certificate_stability_plus_one():
    for text in CORPUS_ELEMENTARY:
        t, f = build(text)
        r1 = integrate(t, f)
        r2 = integrate(t, f + 1)
        assert isinstance(r1, LiouvilleForm) and isinstance(r2, LiouvilleForm)
    for text in CORPUS_NON_ELEMENTARY:
        t, f = build(text)
        r1 = integrate(t, f)
        r2 = integrate(t, f + 1)
        assert isinstance(r1, NonElementary) and isinstance(r2, NonElementary)


# ------------------------------------------------------- structural constancy

# D((x^2 + 2)/((log(b) + log(x))*log(x))) as the tower benchmark writes it:
# the constant log(b) sits below log(x), so every field above it is nested
# over Q(log b), and differentiating the integrand to test its constancy ran
# nested-field gcds for tens of seconds
LOG_PRODUCT = {
    b: (
        f"(2*x*((log({b}) + log(x))*log(x)) - (x^2 + 2)*(1/x*log(x) + "
        f"(log({b}) + log(x))*(1/x)))/((log({b}) + log(x))*log(x))^2",
        f"(x^2 + 2)/(log(x)^2 + log({b})*log(x))",
    )
    for b in (2, 3)
}


class _Budget(BaseException):
    pass


def _raise_budget(signum, frame):
    raise _Budget()


@pytest.mark.parametrize("b", sorted(LOG_PRODUCT))
def test_log_product_ends_fast(b):
    text, r0 = LOG_PRODUCT[b]
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_budget)
    try:
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        code = cli_run(RunConfig(integrand=text, json_output=True), out=out)
    except _Budget:
        pytest.fail(f"log_product input with log({b}) ran past 10 s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert json.loads(out.getvalue())["r0"] == r0


def test_constancy_does_not_differentiate_the_integrand(monkeypatch):
    t, f = build(LOG_PRODUCT[2][0])
    real_derive = Tower.derive

    def recording(self, g):
        if g == f:
            raise AssertionError("the integrand was differentiated")
        return real_derive(self, g)

    monkeypatch.setattr(Tower, "derive", recording)
    res = integrate(t, f)
    monkeypatch.undo()
    assert_verified(t, f, res)


@pytest.mark.parametrize("text, code", [
    ("(exp(x)*exp(i*x) - exp((1+i)*x))/x", 0),
    ("(exp(x)*exp(i*x) - exp(x+i*x))/x", 0),
    ("exp(x)*exp(i*x)/x", 1),
])
def test_complex_exp_relation_is_folded(text, code):
    """exp((1+i)x) = exp(x)*exp(i x) is a relation over Q between D(x) = 1
    and D(i x) = i, so the first two integrands are identically 0; certifying
    them would rest on a false independence."""
    out = io.StringIO()
    assert cli_run(RunConfig(integrand=text, json_output=True), out=out) == code
    doc = json.loads(out.getvalue())
    assert len(doc["assumptions"]) == 2
    if code == 0:
        assert doc["r0"] == "0"
