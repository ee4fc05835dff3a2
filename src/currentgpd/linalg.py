"""Small dense linear algebra that also runs on dual scalars.

Float-only rank queries go through numpy's SVD.  :func:`linsolve` and
:func:`matmul` take packed matrices (see :func:`ad.pack`): numpy arrays, or
``Dual``s whose parts are arrays with the matrix axes last, so that solves
can sit inside AD-evaluated code paths.  A solve runs LAPACK
(``np.linalg.solve``) on the value parts and gets each derivative part from
the forward-mode rule ``A x' = b' - A' x``.
"""

from __future__ import annotations

import numpy as np

from .ad import Dual, jacobian, sqrt, value
from .errors import RankDrop, SingularNormalization


def matmul(A, B):
    """A B for packed matrices, as a sum of outer products in column order.

    The leading direction and node axes of the parts broadcast.
    """
    out = A[..., :, :1] * B[..., None, 0, :]
    for j in range(1, np.shape(value(A))[-1]):
        out = out + A[..., :, j:j + 1] * B[..., None, j, :]
    return out


def linsolve(A, B):
    """X with A X = B, for a packed n x n matrix A and n x m matrix B.

    The leading axes of the parts, direction axes and then node axes, form
    a stack of matrices.  LAPACK solves the value parts, one call per matrix
    of the stack, so each node and each direction gets the bits of its own
    solve.  Each derivative part x' of X then solves A x' = b' - A' x with
    the same value matrix, recursively for nested duals.  An exactly
    singular matrix raises SingularNormalization; a NaN entry gives NaN.
    """
    return _solve(A, B)


def _solve(A, B):
    if isinstance(A, Dual):
        Br, Be = (B.re, B.ep) if isinstance(B, Dual) else (B, 0.0)
        X = _solve(A.re, Br)
        return Dual(X, _solve(A.re, Be - matmul(A.ep, X)))
    if isinstance(B, Dual):
        return Dual(_solve(A, B.re), _solve(A, B.ep))
    # B as a stack of matrices shaped like A's, which numpy < 2 would
    # otherwise read as a stack of vectors when it has one axis fewer
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    try:
        return np.linalg.solve(np.broadcast_to(A, lead + A.shape[-2:]),
                               np.broadcast_to(B, lead + B.shape[-2:]))
    except np.linalg.LinAlgError as e:
        if str(e) != "Singular matrix":
            raise
        raise SingularNormalization("singular linear system") from None


def newton(residual, x0, tol, max_iter, bound):
    """Newton's method for residual(x) = 0 on (B, d) rows from x0.

    residual maps the d components of the rows, (B,) arrays, to the d
    components of their residuals, row by row; Jacobians come from AD.
    A row stops at its first iterate whose residual is below tol in max
    norm, so it takes the iterates of its lone solve, and only the rows
    that have not stopped take a step.  Returns the (B, d) stopped rows, or
    None if any row's step is singular, an iterate leaves the box
    |x_i| <= bound or is NaN, or max_iter steps do not converge.  A NaN
    residual is never below tol.
    """
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        r = np.stack([value(c) for c in residual(list(x.T))], axis=-1)
        todo = ~(np.max(np.abs(r), axis=-1, initial=0.0) < tol)
        if not todo.any():
            return x
        J = jacobian(residual, list(x.T))[todo]
        try:
            step = linsolve(J, r[todo][..., None])[..., 0]
        except SingularNormalization:
            return None
        x[todo] -= step
        if not np.all(np.abs(x[todo]) <= bound):
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

