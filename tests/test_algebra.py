"""Kernel tests: Gaussian rationals, polynomial algorithms, rational functions.

Expected values marked below were computed from the independent oracles in
this file (Sylvester determinants, product-over-roots, derivative-gcd
refinement) or worked by hand, then frozen.
"""
import random
from fractions import Fraction

import pytest

from liouville.algebra import (
    GaussRat,
    QI,
    Poly,
    RatFunc,
    FracField,
    poly_divmod,
    poly_gcd,
    extended_gcd,
    squarefree_decompose,
    resultant,
    poly_mod,
    linear_solve,
    power_sums,
    gauss_rational_roots,
    gauss_sqrt,
    AlgExtField,
)


def P(*ints):
    """Integer-coefficient polynomial over Q(i), constant term first."""
    return Poly.ints(QI, ints)


def rand_gauss(rng, small=True):
    b = 3 if small else 9
    return GaussRat(
        Fraction(rng.randint(-b, b), rng.randint(1, 3)),
        Fraction(rng.randint(-1, 1), 1),
    )


def rand_poly(rng, max_deg=4, rational_only=False):
    deg = rng.randint(0, max_deg)
    coeffs = []
    for _ in range(deg + 1):
        c = rand_gauss(rng)
        if rational_only:
            c = GaussRat(c.re)
        coeffs.append(c)
    return Poly(QI, coeffs)


def rand_nonzero_poly(rng, max_deg=4, min_deg=0, rational_only=False):
    while True:
        p = rand_poly(rng, max_deg, rational_only)
        if not p.is_zero() and p.degree() >= min_deg:
            return p


# ---------------------------------------------------------------- oracles


def conj(z: GaussRat) -> GaussRat:
    return GaussRat(z.re, -z.im)


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


def det(rows: list[list], field):
    """Determinant by fraction-full elimination; exact over a field."""
    n = len(rows)
    a = [list(r) for r in rows]
    out = field.one()
    for c in range(n):
        pivot = None
        for k in range(c, n):
            if not a[k][c].is_zero():
                pivot = k
                break
        if pivot is None:
            return field.zero()
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        pv = a[c][c]
        out = out * pv
        inv_rowc = [v / pv for v in a[c]]
        for k in range(c + 1, n):
            f = a[k][c]
            if f.is_zero():
                continue
            a[k] = [v - f * w for v, w in zip(a[k], inv_rowc)]
    return out


def sylvester_resultant(a: Poly, b: Poly):
    """Independent resultant oracle: determinant of the Sylvester matrix."""
    m, n = a.degree(), b.degree()
    if m == 0 and n == 0:
        return QI.one()
    size = m + n
    rows = []
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    for i in range(n):
        rows.append(
            [QI.zero()] * i + ac + [QI.zero()] * (size - m - 1 - i)
        )
    for i in range(m):
        rows.append(
            [QI.zero()] * i + bc + [QI.zero()] * (size - n - 1 - i)
        )
    return det(rows, QI)


def gcd_by_derivative_refinement(p: Poly):
    """Independent squarefree oracle: peel gcd(p, p') repeatedly."""
    parts = []
    p = p.monic()
    prev = p
    while prev.degree() > 0:
        g = poly_gcd(prev, prev.derivative())
        sf = poly_divmod(prev, g)[0]
        parts.append(sf)
        prev = g
    # parts[k] = product of factors with multiplicity > k
    out = []
    for i in range(len(parts)):
        if i + 1 < len(parts):
            q = poly_divmod(parts[i], parts[i + 1])[0]
        else:
            q = parts[i]
        if q.degree() > 0:
            out.append((q.monic(), i + 1))
    return out


# ------------------------------------------------------------ Gaussian field


def test_gauss_basic_arithmetic():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)
    z = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert z + conj(z) == GaussRat(1)
    assert z * z.inv() == GaussRat(1)
    assert conj(conj(z)) == z  # conjugation is an involution
    assert str(GaussRat(0, Fraction(-1, 4))) == "-i/4"


def test_gauss_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_gauss(rng, small=False) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        if not b.is_zero():
            assert (a / b) * b == a


def test_gauss_sqrt():
    assert gauss_sqrt(GaussRat(4)) == GaussRat(2)
    assert gauss_sqrt(GaussRat(-4)) == GaussRat(0, 2)
    assert gauss_sqrt(GaussRat(0, 2)) == GaussRat(1, 1)  # (1+i)^2 = 2i
    assert gauss_sqrt(GaussRat(2)) is None
    z = GaussRat(Fraction(3, 5), Fraction(7, 11))
    sq = z * z
    r = gauss_sqrt(sq)
    assert r is not None and r * r == sq


def test_gauss_to_complex_matches_float_conversion():
    # bit for bit, signed zeros included, and OverflowError where float()
    # raises it; 1100 and 1500 bits overflow or underflow a double
    rng = random.Random(15)
    sizes = (8, 64, 600, 1100, 1500)

    def frac():
        top = 2 ** rng.choice(sizes)
        return Fraction(rng.randint(-top, top), rng.randint(1, 2 ** rng.choice(sizes)))

    seen = {"value": 0, "overflow": 0}
    for _ in range(600):
        z = GaussRat(frac(), frac())
        try:
            expected = complex(float(z.re), float(z.im))
        except OverflowError:
            with pytest.raises(OverflowError):
                z.to_complex()
            seen["overflow"] += 1
            continue
        assert repr(z.to_complex()) == repr(expected), z
        seen["value"] += 1
    assert seen["value"] > 100 and seen["overflow"] > 100


# ------------------------------------------------------------------ poly ops


def test_divmod_and_gcd_examples():
    # gcd(x^2 - 1, x^3 - 1) = x - 1: common roots of the two factorizations
    g = poly_gcd(P(-1, 0, 1), P(-1, 0, 0, 1))
    assert g == P(-1, 1)
    # gcd(p, 0) = monic(p)
    p = P(2, 4)
    assert poly_gcd(p, Poly(QI, [])) == Poly(QI, [GaussRat(Fraction(1, 2)), QI.one()])
    # gcd(x + 1, x + 2) = 1, by extended Euclid by hand
    assert poly_gcd(P(1, 1), P(2, 1)) == P(1)


def test_extended_gcd_examples():
    g, s, t = extended_gcd(P(1, 0, 1), P(0, 1))
    assert (g, s, t) == (P(1), P(1), P(0, -1))
    g, s, t = extended_gcd(P(3, 1), P(1))
    assert (g, s, t) == (P(1), Poly(QI, []), P(1))
    g, s, t = extended_gcd(P(-1, 1), P(-1, 1))
    assert (g, s, t) == (P(-1, 1), Poly(QI, []), P(1))


def test_extended_gcd_identity_random():
    rng = random.Random(11)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if a.is_zero() and b.is_zero():
            continue
        g, s, t = extended_gcd(a, b)
        assert s * a + t * b == g
        assert g == poly_gcd(a, b) or (a.is_zero() and b.is_zero())
        if not b.is_zero() and not a.is_zero() and g.degree() < b.degree():
            q, r = poly_divmod(a, b)
            if not r.is_zero():
                assert s.degree() < b.degree() - g.degree()


def test_extended_gcd_of_zeros_raises():
    with pytest.raises(ValueError):
        extended_gcd(Poly(QI, []), Poly(QI, []))


def test_gcd_common_factor_random():
    rng = random.Random(13)
    for _ in range(150):
        p = rand_nonzero_poly(rng, 3)
        q = rand_nonzero_poly(rng, 3)
        r = rand_nonzero_poly(rng, 2, min_deg=1)
        g = poly_gcd(p * r, q * r)
        _, rem = poly_divmod(g, r.monic())
        assert rem.is_zero()


def test_squarefree_examples():
    # x^3 + x^2 = x^2 (x + 1): multiplicities in increasing order
    assert squarefree_decompose(P(0, 0, 1, 1)) == [(P(1, 1), 1), (P(0, 1), 2)]
    # already squarefree
    assert squarefree_decompose(P(2, 0, 2)) == [(P(1, 0, 1), 1)]
    # (x + 1)^2
    assert squarefree_decompose(P(1, 2, 1)) == [(P(1, 1), 2)]


def test_squarefree_properties_random():
    rng = random.Random(17)
    for _ in range(120):
        p = rand_nonzero_poly(rng, 3, min_deg=1)
        q = rand_nonzero_poly(rng, 2)
        full = p * p * q
        parts = squarefree_decompose(full)
        # reconstruct exactly, including the leading coefficient
        rebuilt = Poly.const(QI, full.lc())
        for f, m in parts:
            rebuilt = rebuilt * f ** m
        assert rebuilt == full
        # factors squarefree and pairwise coprime
        for f, _ in parts:
            assert poly_gcd(f, f.derivative()).degree() == 0
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).degree() == 0
        assert parts == gcd_by_derivative_refinement(full)


def test_resultant_examples():
    # res(x - c, q) = q(c)
    c = GaussRat(Fraction(5, 3), Fraction(1, 2))
    q = P(1, 2, 0, 7)
    lin = Poly(QI, [-c, QI.one()])
    assert resultant(lin, q) == q.eval(c)
    # res(x^2 + 1, x^2 - 2) = 9: roots of x^2+1 are +-i, (i^2-2)(-i^2... ) by
    # the product-over-roots oracle below
    i = GaussRat(0, 1)
    prod = (P(-2, 0, 1).eval(i)) * (P(-2, 0, 1).eval(-i))
    assert prod == GaussRat(9)
    assert resultant(P(1, 0, 1), P(-2, 0, 1)) == GaussRat(9)


def test_resultant_symmetry_and_multiplicativity():
    rng = random.Random(19)
    for _ in range(150):
        a = rand_nonzero_poly(rng, 3)
        b = rand_nonzero_poly(rng, 3)
        c = rand_nonzero_poly(rng, 2)
        ra = resultant(a, b)
        sign = -1 if (a.degree() * b.degree()) % 2 == 1 else 1
        assert ra == resultant(b, a) * QI.from_int(sign)
        assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(23)
    for _ in range(200):
        a = rand_nonzero_poly(rng, 4)
        b = rand_nonzero_poly(rng, 4)
        assert resultant(a, b) == sylvester_resultant(a, b)


def test_resultant_zero_input_raises():
    with pytest.raises(ValueError):
        resultant(Poly(QI, []), P(1))


def test_partial_fractions_examples():
    # 1/(x^2 - 1) = (1/2)/(x - 1) + (-1/2)/(x + 1), by clearing denominators
    half = GaussRat(Fraction(1, 2))
    terms = partial_fractions(P(1), [(P(-1, 1), 1), (P(1, 1), 1)])
    assert (Poly.const(QI, half), P(-1, 1), 1) in terms
    assert (Poly.const(QI, -half), P(1, 1), 1) in terms
    # p/q with q irreducible stays whole
    assert partial_fractions(P(3, 1), [(P(1, 1, 1), 1)]) == [(P(3, 1), P(1, 1, 1), 1)]
    # 1/x^2
    assert partial_fractions(P(1), [(P(0, 1), 2)]) == [(P(1), P(0, 1), 2)]


def test_partial_fractions_reconstruct_random():
    rng = random.Random(29)
    for _ in range(100):
        f1 = rand_nonzero_poly(rng, 2, min_deg=1).monic()
        f2 = rand_nonzero_poly(rng, 2, min_deg=1).monic()
        if poly_gcd(f1, f2).degree() > 0:
            continue
        den_factors = [(f1, 1), (f2, 2)]
        den = f1 * f2 * f2
        num = rand_poly(rng, den.degree() - 1)
        if num.is_zero():
            continue
        terms = partial_fractions(num, den_factors)
        total_num = Poly(QI, [])
        for a, f, k in terms:
            assert a.degree() < f.degree()
            cof = poly_divmod(den, f ** k)[0]
            total_num = total_num + a * cof
        assert total_num == num


def test_partial_fractions_improper_raises():
    with pytest.raises(ValueError):
        partial_fractions(P(0, 0, 1), [(P(0, 1), 1)])


# -------------------------------------------------------------- rat functions


def test_ratfunc_canonical_form():
    F = FracField(QI, "x")
    f = RatFunc(P(2, 2), P(0, 2))  # (2x + 2) / 2x -> (x + 1)/x
    assert f.num == P(1, 1) and f.den == P(0, 1)
    g = RatFunc(P(-1, 0, 1), P(1, 1))  # (x^2 - 1)/(x + 1) -> x - 1
    assert g.is_poly() and g.num == P(-1, 1)
    assert (f - f).is_zero()
    assert F.one() + F.from_int(-1) == F.zero()


def test_ratfunc_field_axioms_random():
    rng = random.Random(31)
    F = FracField(QI, "x")

    def rand_rf():
        return RatFunc(rand_poly(rng, 3), rand_nonzero_poly(rng, 2))

    for _ in range(80):
        a, b, c = rand_rf(), rand_rf(), rand_rf()
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a + F.zero() == a


def test_nested_fraction_field():
    # rational functions in t over rational functions in x
    F0 = FracField(QI, "x")
    F1 = FracField(F0, "t")
    x = F0.gen()
    t = F1.gen()
    f = (t * F1.from_coeff(x) + F1.one()) / t  # (x t + 1)/t
    g = f * t
    assert g.is_poly()
    assert resultant(f.num, f.den) is not None


# ------------------------------------------------------------------- algext


def test_alg_ext_inverse_and_power_sums():
    # Q(i)[w]/(w^2 - 2): arithmetic with a formal sqrt(2)
    mod = P(-2, 0, 1)
    ext = AlgExtField(mod)
    w = ext.root()
    inv = (ext.one() + w).inv()  # 1/(1 + sqrt2) = sqrt2 - 1
    assert inv == ext.from_poly(P(-1, 1))
    # power sums of w^2 - 2: roots +-sqrt2: p0=2, p1=0, p2=4, p3=0
    p = power_sums(mod, 3)
    assert p == [GaussRat(2), GaussRat(0), GaussRat(4), GaussRat(0)]
    # cubic check: roots of w^3 - 2: p1 = 0, p2 = 0, p3 = 6
    p = power_sums(P(-2, 0, 0, 1), 3)
    assert p == [GaussRat(3), GaussRat(0), GaussRat(0), GaussRat(6)]
    # with e1 nonzero: (w-1)(w-2) = w^2 - 3w + 2: p1 = 3, p2 = 5, p3 = 9
    p = power_sums(P(2, -3, 1), 3)
    assert p == [GaussRat(2), GaussRat(3), GaussRat(5), GaussRat(9)]


def test_gauss_rational_roots():
    # (w - 1/2)(w + i/4)(w^2 - 2): rational part found, sqrt2 part remains
    f1 = Poly(QI, [GaussRat(Fraction(-1, 2)), QI.one()])
    f2 = Poly(QI, [GaussRat(0, Fraction(1, 4)), QI.one()])
    rem_true = P(-2, 0, 1)
    s = f1 * f2 * rem_true
    roots, rem = gauss_rational_roots(s)
    assert set(roots) == {GaussRat(Fraction(1, 2)), GaussRat(0, Fraction(-1, 4))}
    assert rem == rem_true


def test_linear_solve():
    one = QI.one()
    two = QI.from_int(2)
    sol = linear_solve([[one, one], [one, -one]], [two, QI.zero()], QI)
    assert sol == [one, one]
    assert linear_solve([[one], [one]], [one, two], QI) is None
