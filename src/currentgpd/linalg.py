"""Small dense linear algebra that also runs on dual scalars.

Float-only rank queries go through numpy's SVD; the generic routines here
exist so that solves and orthonormalisation can sit inside AD-evaluated
code paths.  :func:`linsolve` works on whole rows: its matrices are numpy
arrays, or ``Dual``s whose parts are arrays when the entries carry duals
(see :func:`ad.pack`).
"""

from __future__ import annotations

import numpy as np

from .ad import Dual, jacobian, pack, sqrt, unpack, value
from .errors import RankDrop, SingularNormalization
from .report import worst_residual


def linsolve(A, rhs):
    """Solve A x = b for each b in rhs; A is factored once per part.

    LU with partial pivoting.  A is a list of rows and rhs a list of
    right-hand sides, each a list; entries may be duals, and the solutions
    come back in the same order.  The right-hand sides ride along as extra
    columns of A.  The pivot is the first entry of largest magnitude in its
    column, compared on underlying values.  Each pivot eliminates the rows
    below it in one slice update, and back-substitution runs on whole rows
    of right-hand sides, so each is solved as if it were alone.

    Entries may carry a trailing node axis (see :func:`ad.take`): then A is
    a stack of matrices, one per node, and each is pivoted on its own, so
    every node sees the operations of its own solve, bit for bit.

    Every entry sees the operations of a solve entry by entry, in the same
    order.  Where any entry of A or b is a dual, every float entry becomes
    a dual with derivative 0; its quotients then round as dual ones do
    (``x * (1 / a)`` for ``x / a``), so a value may differ in the last bit
    from a solve entry by entry, and a zero derivative may differ in sign.
    """
    n = len(A)
    cols = [[b[r] for b in rhs] for r in range(n)]  # row r: entry r of each b
    X = unpack(_lu(pack([list(A[r]) + cols[r] for r in range(n)]), n))
    return [[row[k] for row in X] for k in range(len(rhs))]


def _lu(M, n):
    """Overwrite a packed [A | B] with its elimination; returns X of A X = B.

    Indices start with ``...`` to pass over the leading direction and node
    axes of the parts, and rows and columns are sliced, never indexed away,
    so that those axes broadcast in step with both matrix axes.  Each
    matrix of a stack takes its own pivots.
    """
    M = _with_lead(M, np.shape(value(M))[:-2])
    for col in range(n):
        mag = np.abs(value(M)[..., col:, col])
        if not mag.any(-1).all():  # a NaN column is not singular
            raise SingularNormalization("singular linear system")
        at = mag.argmax(-1)
        if at.any():
            M = _swap_rows(M, col, col + at)
        p = slice(col, col + 1)  # pivot row or column, kept as an axis
        if col + 1 < n:
            f = M[..., col + 1:, p] * (1.0 / M[..., p, p])
            M[..., col + 1:, col:] = (M[..., col + 1:, col:]
                                      - f * M[..., p, col:])
    for r in range(n - 1, -1, -1):  # row c > r holds solution row c
        q = slice(r, r + 1)
        acc = M[..., q, n:]
        for c in range(r + 1, n):
            acc = acc - M[..., q, c:c + 1] * M[..., c:c + 1, n:]
        M[..., q, n:] = acc / M[..., q, q]
    return M[..., n:]


def _with_lead(M, lead):
    """M with every part broadcast over the node axes ``lead`` of its value,
    as a fresh array where that adds axes, so each matrix can be written."""
    if not lead:
        return M
    if isinstance(M, Dual):
        return Dual(_with_lead(M.re, lead), _with_lead(M.ep, lead))
    shape = np.broadcast_shapes(M.shape[:-2], lead) + M.shape[-2:]
    return M if shape == M.shape else np.broadcast_to(M, shape).copy()


def _swap_rows(M, col, piv):
    """M with row col and row piv swapped in each matrix of the stack;
    piv holds one row per matrix."""
    if isinstance(M, Dual):
        return Dual(_swap_rows(M.re, col, piv), _swap_rows(M.ep, col, piv))
    rows = np.broadcast_to(np.arange(M.shape[-2]),
                           piv.shape + M.shape[-2:-1]).copy()
    np.put_along_axis(rows, piv[..., None], col, axis=-1)
    rows[..., col] = piv
    rows = rows.reshape((1,) * (M.ndim - rows.ndim - 1) + rows.shape + (1,))
    return np.take_along_axis(M, rows, axis=-2)


def newton(residual, x0, tol, max_iter, bound):
    """Newton's method for residual(x) = 0 from x0, with AD Jacobians.

    Returns the first iterate whose residual is below tol in max norm, or
    None if a step is singular, an iterate leaves the box |x_i| <= bound
    or is NaN, or max_iter steps do not converge.  A NaN residual is never
    below tol.
    """
    x = list(x0)
    for _ in range(max_iter):
        r = [value(c) for c in residual(x)]
        if worst_residual(*r) < tol:
            return x
        J = jacobian(residual, x)
        try:
            step, = linsolve([list(row) for row in J], [r])
        except SingularNormalization:
            return None
        x = [xi - si for xi, si in zip(x, step)]
        if not worst_residual(*x) <= bound:
            return None
    return None


def dot_list(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def gram_schmidt(vectors):
    """Orthonormalise a list of component-lists; dual entries allowed.

    A vector whose remainder is shorter than 1e-12 is dropped.  Entries
    may carry a trailing node axis; a vector dropped at some nodes but not
    at others raises RankDrop, since the nodes would keep frames of
    different lengths.
    """
    out = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = dot_list(w, u)
            w = [wi - c * ui for wi, ui in zip(w, u)]
        nrm = sqrt(dot_list(w, w))
        short = abs(value(nrm)) < 1e-12
        if isinstance(short, np.ndarray):
            if short.any() and not short.all():
                raise RankDrop("a frame vector vanishes at some nodes only")
            short = short.all()
        if short:
            continue
        out.append([wi / nrm for wi in w])
    return out


def numerical_ranks(s, rel):
    """Ranks from stacked singular values s (..., k), each row descending.

    A singular value counts above the floor rel * max(s[..., 0], 1).
    """
    return (s > rel * s[..., :1].clip(1.0)).sum(axis=-1)

