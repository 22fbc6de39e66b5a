"""A test-side elimination reference on raw field values.

solve runs the package's own row reduction, linalg._rref, on the augmented
system; the closed-form right inverse (linalg._right_inverse) is pinned to
it, and the sheaf layout reference reads coordinates with it.
"""

from cordsheaf.linalg import _rref, _zero


def solve(p, rows, cols, rhs):
    """One solution x of rows @ x = rhs, free variables zero, or None."""
    red, pivots = _rref(p, [tuple(row) + (b,) for row, b in zip(rows, rhs)], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [_zero(p)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x
