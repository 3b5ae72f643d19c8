"""Exact arithmetic kernel: rationals, Gaussian rationals, polynomials,
rational functions, and finite constant extensions.
"""
from .gaussian import Rat, GaussRat, QI, I_UNIT
from .poly import (
    Poly,
    poly_divmod,
    poly_mod,
    poly_exact_div,
    poly_gcd,
    extended_gcd,
    solve_diophantine,
    resultant,
    squarefree_decompose,
    squarefree_part,
    partial_fractions,
)
from .ratfunc import RatFunc, FracField
from .extension import AlgExtField, AlgElem, SplitsModulus, power_sums
from .linear import linear_solve
from .roots import gauss_rational_roots, gauss_sqrt, sqrt_fraction, durand_kerner

__all__ = [
    "Rat",
    "GaussRat",
    "QI",
    "I_UNIT",
    "Poly",
    "poly_divmod",
    "poly_mod",
    "poly_exact_div",
    "poly_gcd",
    "extended_gcd",
    "solve_diophantine",
    "resultant",
    "squarefree_decompose",
    "squarefree_part",
    "partial_fractions",
    "RatFunc",
    "FracField",
    "AlgExtField",
    "AlgElem",
    "SplitsModulus",
    "power_sums",
    "linear_solve",
    "gauss_rational_roots",
    "gauss_sqrt",
    "sqrt_fraction",
    "durand_kerner",
]
