"""Small dense linear algebra that also runs on dual scalars.

Float-only rank queries go through numpy's SVD; the generic routines here
exist so that solves and orthonormalisation can sit inside AD-evaluated
code paths.  Newton's method sits next to the solve it steps with.
"""

from __future__ import annotations

from .ad import jacobian, sqrt, value
from .errors import SingularNormalization


def linsolve(A, rhs):
    """Solve A x = b for each b in rhs; A is factored once.

    LU with partial pivoting; entries may be duals.  A is a list of rows and
    rhs a list of right-hand sides, each a list; the solutions come back in
    the same order.  Pivoting compares underlying values, and each
    right-hand side sees the same operations as if it were solved alone.
    """
    n = len(A)
    M = [list(row) for row in A]
    R = [[b[r] for b in rhs] for r in range(n)]  # row r: entry r of each b
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(M[r][col])))
        if abs(value(M[piv][col])) == 0.0:
            raise SingularNormalization("singular linear system")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            R[col], R[piv] = R[piv], R[col]
        inv = 1.0 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            for c in range(col, n):
                M[r][c] = M[r][c] - f * M[col][c]
            R[r] = [a - f * p for a, p in zip(R[r], R[col])]
    X = [None] * n
    for r in range(n - 1, -1, -1):
        acc = R[r]
        for c in range(r + 1, n):
            acc = [a - M[r][c] * x for a, x in zip(acc, X[c])]
        X[r] = [a / M[r][r] for a in acc]
    return [[X[r][k] for r in range(n)] for k in range(len(rhs))]


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
            step, = linsolve([list(row) for row in J], [r])
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


def numerical_ranks(s, rel):
    """Ranks from stacked singular values s (..., k), each row descending.

    A singular value counts above the floor rel * max(s[..., 0], 1).
    """
    return (s > rel * s[..., :1].clip(1.0)).sum(axis=-1)

