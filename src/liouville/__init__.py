"""Symbolic integration in finite terms over towers of log/exp extensions.

Given an elementary integrand, produce an antiderivative in the normal form
r0 + sum of constant-weighted logarithms, or a checkable certificate that no
elementary antiderivative exists.
"""
from .errors import UnsupportedError, DependentMonomialError, DegreeCapExceeded
from .syntax import Expr, ParseError, parse, pretty_print, rewrite_trig
from .tower import (
    Tower,
    TowerElem,
    Monomial,
    build_tower,
    convert_expr,
)
from .integrate import (
    LiouvilleForm,
    LogTerm,
    RootSumTerm,
    NonElementary,
    ResidueNotConstant,
    RischOdeUnsolvable,
    LogDegreeObstruction,
    integrate,
    rothstein_trager,
    integrate_polypart_log,
    combine,
    form_derivative,
)
from .verify import (
    VerificationReport,
    SingularIntervalError,
    verify_derivative,
    numeric_check,
)

__all__ = [
    "UnsupportedError",
    "DependentMonomialError",
    "DegreeCapExceeded",
    "Expr",
    "ParseError",
    "parse",
    "pretty_print",
    "rewrite_trig",
    "Tower",
    "TowerElem",
    "Monomial",
    "build_tower",
    "convert_expr",
    "LiouvilleForm",
    "LogTerm",
    "RootSumTerm",
    "NonElementary",
    "ResidueNotConstant",
    "RischOdeUnsolvable",
    "LogDegreeObstruction",
    "integrate",
    "rothstein_trager",
    "integrate_polypart_log",
    "combine",
    "form_derivative",
    "VerificationReport",
    "SingularIntervalError",
    "verify_derivative",
    "numeric_check",
]

__version__ = "0.1.0"
