"""Small dense linear algebra that also runs on dual scalars.

Float-only rank queries go through numpy's SVD; the generic routines here
exist so that solves and orthonormalisation can sit inside AD-evaluated
code paths.  Newton's method sits next to the solve it steps with.
"""

from __future__ import annotations

from .ad import jacobian, sqrt, value
from .errors import SingularNormalization


def linsolve(A, b):
    """Solve A x = b by LU with partial pivoting; entries may be duals.

    A is a list of rows, b a list; pivoting compares underlying values.
    """
    n = len(b)
    M = [list(row) for row in A]
    rhs = list(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(M[r][col])))
        if abs(value(M[piv][col])) == 0.0:
            raise SingularNormalization("singular linear system")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            for c in range(col, n):
                M[r][c] = M[r][c] - f * M[col][c]
            rhs[r] = rhs[r] - f * rhs[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, n):
            acc = acc - M[r][c] * x[c]
        x[r] = acc / M[r][r]
    return x


def newton(residual, x0, tol, max_iter, bound):
    """Newton's method for residual(x) = 0 from x0, with AD Jacobians.

    Returns the first iterate whose residual is below tol in max norm, or
    None if a step is singular, an iterate leaves the box |x_i| <= bound,
    or max_iter steps do not converge.
    """
    x = list(x0)
    for _ in range(max_iter):
        r = [value(c) for c in residual(x)]
        if max((abs(c) for c in r), default=0.0) < tol:
            return x
        J = jacobian(residual, x)
        try:
            step = linsolve([list(row) for row in J], r)
        except SingularNormalization:
            return None
        x = [xi - si for xi, si in zip(x, step)]
        if max(abs(xi) for xi in x) > bound:
            return None
    return None


def dot_list(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def gram_schmidt(vectors, drop_tol=1e-12):
    """Orthonormalise a list of component-lists; dual entries allowed."""
    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = dot_list(w, u)
            w = [wi - c * ui for wi, ui in zip(w, u)]
        nrm = sqrt(dot_list(w, w))
        if abs(value(nrm)) < drop_tol:
            continue
        out.append([wi / nrm for wi in w])
    return out


def rank_floor(singular_values, rel=1e-8):
    """Scale-invariant rank threshold: rel * max(largest singular value, 1)."""
    smax = float(singular_values[0]) if len(singular_values) else 0.0
    return rel * max(smax, 1.0)

