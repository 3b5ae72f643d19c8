"""Exact linear algebra over a coefficient field (Gauss-Jordan)."""
from __future__ import annotations


def linear_solve(rows: list[list], rhs: list, field):
    """Solve rows * x = rhs exactly. Returns a particular solution (free
    variables set to zero) or None when the system is inconsistent.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for k in range(r, m):
            if not aug[k][c].is_zero():
                pivot = k
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for k in range(m):
            if k != r and not aug[k][c].is_zero():
                f = aug[k][c]
                aug[k] = [v - f * w for v, w in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if not aug[k][n].is_zero():
            return None
    x = [field.zero()] * n
    for idx, c in enumerate(pivots):
        x[c] = aug[idx][n]
    return x

