"""Shared error types for inputs outside the supported tower fragment."""
from __future__ import annotations

import os


class UnsupportedError(Exception):
    """Input requires machinery outside scope (algebraic extensions,
    transcendental constant coefficients, degree caps)."""


class DependentMonomialError(UnsupportedError):
    """A requested log/exp extension is algebraically dependent on the
    existing tower and no automatic simplification applies. Carries the
    witness relation."""

    def __init__(self, message: str, relation: str):
        super().__init__(message)
        self.relation = relation


class DegreeCapExceeded(UnsupportedError):
    """An internal degree bound or an input exponent exceeded
    LIOUVILLE_MAX_DEGREE."""


def _max_degree() -> int:
    """The degree cap: LIOUVILLE_MAX_DEGREE, 64 when unset or malformed."""
    try:
        return int(os.environ.get("LIOUVILLE_MAX_DEGREE", "64"))
    except ValueError:
        return 64
