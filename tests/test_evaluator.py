"""The numeric evaluator `Tower.point` / `Tower.eval_rep` against the
per-element evaluator it replaced, kept below as the reference: the same
float operations in the same order, so values agree exactly (compared by
repr, which tells signed zeros apart) and failures raise the same type."""
import cmath
import random

from liouville import verify
from liouville.algebra.ratfunc import RatFunc
from liouville.algebra.gaussian import GaussRat
from liouville.algebra.roots import durand_kerner
from liouville.integrate import integrate, LiouvilleForm
from liouville.syntax import parse
from liouville.tower import TowerElem, build_tower
from liouville.verify import numeric_check


# ------------------------------------------ reference: the former evaluator


def ref_eval_complex(t, f, x_val):
    """Numeric evaluation with principal branches for the monomials."""
    import cmath

    vals = []
    for mono in t.monomials:
        a = ref_eval_complex_rep(t, mono.arg.rep, mono.arg.level, x_val, vals)
        vals.append(cmath.log(a) if mono.kind == "log" else cmath.exp(a))
    return ref_eval_complex_rep(t, f.rep, f.level, x_val, vals)


def ref_eval_complex_rep(t, rep, level, x_val, theta_vals):
    def ev_poly(p, lvl):
        if lvl == 0:
            acc = 0j
            for c in reversed(p.coeffs):
                acc = acc * x_val + c.to_complex()
            return acc
        v = theta_vals[lvl - 1]
        acc = 0j
        for c in reversed(p.coeffs):
            acc = acc * v + ev_rep(c, lvl - 1)
        return acc

    def ev_rep(r, lvl):
        n = ev_poly(r.num, lvl)
        d = ev_poly(r.den, lvl)
        if d == 0:
            raise ZeroDivisionError("evaluation hits a pole")
        return n / d

    return ev_rep(rep, level)


def ref_eval_form(t, form, x):
    val = ref_eval_complex(t, form.r0, complex(x))
    for term in form.logs:
        arg = ref_eval_complex(t, term.arg, complex(x))
        val += term.coeff.to_complex() * cmath.log(arg)
    for rs in form.root_sums:
        roots = durand_kerner([c.to_complex() for c in rs.poly.coeffs])
        for root in roots:
            arg = 0j
            for k in range(rs.arg.degree(), -1, -1):
                coeff = ref_eval_complex_rep(t, rs.arg.coeff(k), rs.level, complex(x), ref_theta_values(t, complex(x)))
                arg = arg * root + coeff
            val += root * cmath.log(arg)
    return val


def ref_theta_values(t, x):
    vals = []
    for mono in t.monomials:
        a = ref_eval_complex_rep(t, mono.arg.rep, mono.arg.level, x, vals)
        vals.append(cmath.log(a) if mono.kind == "log" else cmath.exp(a))
    return vals


# ------------------------------------------------------------------ helpers


def outcome(fn, *args):
    """repr of the value, or the type of the exception raised."""
    try:
        return repr(fn(*args))
    except (ZeroDivisionError, ValueError, OverflowError) as e:
        return type(e)


def rand_elem(t, rng):
    """Random element at the top level, with Gaussian coefficients and a
    denominator in the top monomial."""
    F0 = t.field(0)

    def base():
        num = F0.poly([GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
                       for _ in range(rng.randint(1, 3))])
        den = F0.poly([GaussRat(rng.randint(-2, 2), rng.randint(-1, 1))
                       for _ in range(rng.randint(1, 2))])
        while den.is_zero():
            den = F0.poly([GaussRat(rng.randint(-2, 2)) for _ in range(2)])
        return TowerElem(t, 0, RatFunc(num, den))

    e = base()
    for lvl in range(1, len(t.monomials) + 1):
        th = t.theta(lvl)
        e = e * th + base() + th * th * rng.randint(-2, 2)
        if rng.random() < 0.5:
            e = e / (th + base())
    return e


TOWERS = [  # heights 0, 1, 2, 2, 2, 3
    "(x^2+1)/(x-3)", "log(x)", "log(x) + exp(x)", "exp(exp(x))",
    "log(log(x + 1))", "log(log(x + 1)) + exp(x)",
]
POINTS = [0.7, 1.3, 2.5, -1.5, 3.0, 0.4 + 0.9j, -1.2 - 0.3j, 2.0 - 1e-3j]


# ------------------------------------------------------------------- tests


def test_point_and_eval_rep_match_the_reference_exactly():
    rng = random.Random(15)
    compared = 0
    for text in TOWERS:
        t, f = build_tower(parse(text))
        for elem in [f] + [rand_elem(t, rng) for _ in range(8)]:
            for x in POINTS:
                z = complex(x)
                expected = outcome(ref_eval_complex, t, elem, z)
                assert outcome(t.eval_complex, elem, z) == expected, (text, elem, x)
                got = outcome(lambda: t.eval_rep(elem.rep, elem.level, t.point(z)))
                assert got == expected, (text, elem, x)
                compared += isinstance(expected, str)
    assert compared > 300


def test_point_lists_x_and_every_monomial():
    t, _ = build_tower(parse("log(log(x + 1)) + exp(x)"))
    z = complex(1.5)
    pt = t.point(z)
    assert pt[0] == z
    assert pt[1:] == ref_theta_values(t, z)


def test_failures_raise_the_reference_exception():
    cases = [
        ("1/(x-1)", 1.0, ZeroDivisionError),       # level-0 pole
        ("log(x)", 0.0, ValueError),               # cmath.log(0) in the point
        ("exp(1/x)", 0.0, ZeroDivisionError),      # pole inside a monomial
        ("exp(exp(x))", 800.0, OverflowError),     # exp overflow in the point
        ("1/log(x)", 1.0, ZeroDivisionError),      # pole above level 0
    ]
    for text, x, exc in cases:
        t, f = build_tower(parse(text))
        assert outcome(ref_eval_complex, t, f, complex(x)) is exc, text
        assert outcome(t.eval_complex, f, complex(x)) is exc, text


def test_eval_form_matches_the_reference_exactly():
    for text in ["1/(x^3-2)", "1/(x*log(x))", "x*exp(x)", "2*x/(x^2+1)"]:
        t, f = build_tower(parse(text))
        res = integrate(t, f)
        assert isinstance(res, LiouvilleForm)
        if text == "1/(x^3-2)":
            assert res.root_sums
        xs = [2.0, 2.25, 2.5, 3.0, 0.5 + 0.25j]
        # one call for all points finds the roots once; values are unchanged
        assert outcome(verify._eval_form, t, res, xs) == repr([ref_eval_form(t, res, x) for x in xs]), text
        for x in xs:
            one = outcome(lambda: verify._eval_form(t, res, [x])[0])
            assert one == outcome(ref_eval_form, t, res, x), (text, x)


def test_scan_evaluates_the_monomials_once_per_sample(monkeypatch):
    # four watched elements (integrand, antiderivative, the two monomial
    # arguments) share one point per sample: 513 samples x 2 monomials
    t, f = build_tower(parse("exp(x)*log(x) + exp(x)/x"))
    assert len(t.monomials) == 2
    res = integrate(t, f)
    counts = {"scanning": False, "monomials": 0}

    def counted(fn):
        def wrapped(z):
            counts["monomials"] += counts["scanning"]
            return fn(z)
        return wrapped

    scan = verify._scan_singularities

    def counted_scan(*args):
        counts["scanning"] = True
        try:
            return scan(*args)
        finally:
            counts["scanning"] = False

    monkeypatch.setattr(cmath, "log", counted(cmath.log))
    monkeypatch.setattr(cmath, "exp", counted(cmath.exp))
    monkeypatch.setattr(verify, "_scan_singularities", counted_scan)
    rep = numeric_check(t, res, f, (1.0, 2.0))
    assert rep.numeric_ok
    assert counts["monomials"] == 513 * 2
