"""Forward-mode automatic differentiation with nestable dual numbers.

A ``Dual`` carries a value ``re`` and a derivative part ``ep``.  Either part
may itself be a dual (second and higher order via nesting) or a numpy array:
an array ``re`` holds a batch of points, and an ``ep`` may add a leading
direction axis, so that ``ep`` has shape ``(k,) + shape(re)`` and carries k
directional derivatives at once (vector forward mode).  The leading axis
broadcasts against scalar and batched values alike, so the arithmetic below
needs no case for it, and direction j sees the same operations as a pass
seeded with that direction alone.  Chart maps and structure maps throughout
the library are written against the dispatching math functions below, so
the same code path evaluates on floats, on ``Dual`` seeds, and on arrays of
grid samples.  There is one rounding path: each elementary function goes
through one numpy ufunc, for a number as for an array, so a batch of points
gives at each point the bits that point gives alone.  A batch of nodes sits
on the trailing axis of every part, behind any direction axes
(:func:`take`, :func:`scatter`).

A matrix whose entries carry duals is held packed, as one ``Dual`` whose
parts are arrays (:func:`pack`, :func:`unpack`), each with the matrix axes
last behind its direction and node axes.  Indexing, written
``d[..., i, j]``, acts on the trailing axes of every part, so dense algebra
(:mod:`linalg`) runs on whole matrices, floats and duals alike.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np


class Dual:
    __slots__ = ("re", "ep")

    # keep numpy from absorbing us into object arrays
    __array_ufunc__ = None

    def __init__(self, re, ep=0.0):
        self.re = re
        self.ep = ep

    def __repr__(self):
        return f"Dual({self.re!r}, {self.ep!r})"

    def __getitem__(self, idx):
        _past_directions(idx)
        return Dual(self.re[idx], self.ep[idx])

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re + o.re, self.ep + o.ep)
        return Dual(self.re + o, self.ep)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re - o.re, self.ep - o.ep)
        return Dual(self.re - o, self.ep)

    def __rsub__(self, o):
        return Dual(o - self.re, -self.ep)

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.re * o.re, self.re * o.ep + self.ep * o.re)
        return Dual(self.re * o, self.ep * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            inv = 1.0 / o.re
            return Dual(self.re * inv, (self.ep - self.re * inv * o.ep) * inv)
        return Dual(self.re / o, self.ep / o)

    def __rtruediv__(self, o):
        inv = 1.0 / self.re
        v = o * inv
        return Dual(v, -v * inv * self.ep)

    def __neg__(self):
        return Dual(-self.re, -self.ep)


def _past_directions(idx):
    """Check that idx starts with ``...``, which skips direction axes."""
    if type(idx) is not tuple or not idx or idx[0] is not Ellipsis:
        raise TypeError("index a Dual as d[..., i, j], past the leading "
                        "direction axes of its parts")


def value(x):
    """Strip all dual parts, returning the underlying float or array."""
    while isinstance(x, Dual):
        x = x.re
    return x


def _lift(f, df):
    """Build a dual-aware elementwise function from f and its derivative."""

    def g(x):
        if isinstance(x, Dual):
            return Dual(g(x.re), df(x.re) * x.ep)
        return f(x)

    return g


def _ufunc(np_fn):
    """np_fn on arrays, and on numbers through the same ufunc, as a float.

    numpy's loops round an element the same way whether it comes alone or
    in an array, contiguous or strided, while ``math`` rounds ``atan`` and
    ``atan2`` differently, so a number never goes through ``math``.  A value
    outside the domain gives NaN or an infinity with a RuntimeWarning, as it
    does in an array.
    """
    def f(*args):
        out = np_fn(*args)
        return out if isinstance(out, np.ndarray) else float(out)

    return f


sin = _lift(_ufunc(np.sin), lambda x: cos(x))
cos = _lift(_ufunc(np.cos), lambda x: -sin(x))
_sqrt = _ufunc(np.sqrt)
_atan = _ufunc(np.arctan)
_atan2 = _ufunc(np.arctan2)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.re)
        return Dual(r, x.ep / (2.0 * r))
    return _sqrt(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.re), x.ep / (1.0 + x.re * x.re))
    return _atan(x)


def _parts(x):
    """(value, derivative) of x; a plain value has derivative 0."""
    return (x.re, x.ep) if isinstance(x, Dual) else (x, 0.0)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        (yr, ye), (xr, xe) = _parts(y), _parts(x)
        den = xr * xr + yr * yr
        return Dual(atan2(yr, xr), (xr * ye - yr * xe) / den)
    return _atan2(y, x)


def where(cond, a, b):
    """Select elementwise for arrays, by plain truth value otherwise.

    Under an array condition, values and derivatives of dual branches are
    selected separately.  With a scalar condition the branch is chosen
    whole; both branches must agree smoothly at the switching locus.
    """
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(a, Dual) or isinstance(b, Dual):
        (ar, ae), (br, be) = _parts(a), _parts(b)
        return Dual(where(cond, ar, br), where(cond, ae, be))
    return np.where(cond, a, b)


def take(x, rows):
    """The entries of x at ``rows`` of its trailing node axis.

    A part without axes is the same at every node and is kept whole.
    """
    if isinstance(x, Dual):
        return Dual(take(x.re, rows), take(x.ep, rows))
    return x[..., rows] if isinstance(x, np.ndarray) and x.ndim else x


def scatter(parts, rows, n):
    """The inverse of :func:`take`: ``parts[i]`` placed at ``rows[i]``.

    The result has a trailing node axis of length n; a dual part makes the
    result a dual, whose other parts get derivative 0.
    """
    if any(map(isinstance, parts, repeat(Dual))):
        re, ep = zip(*map(_parts, parts))
        return Dual(scatter(re, rows, n), scatter(ep, rows, n))
    out = np.empty(max((np.shape(p)[:-1] for p in parts), key=len) + (n,))
    for p, r in zip(parts, rows):
        out[..., r] = p
    return out


def jvp(fn, xs, vs):
    """Directional derivative: returns (fn(xs), d fn(xs)[vs]) component lists."""
    seeded = [Dual(x, v) for x, v in zip(xs, vs)]
    out = fn(seeded)
    vals, eps = [], []
    for o in out:
        if isinstance(o, Dual):
            vals.append(o.re)
            eps.append(o.ep)
        else:
            vals.append(o)
            eps.append(o * 0.0 if isinstance(o, np.ndarray) else 0.0)
    return vals, eps


def _leaves(x):
    """The floats and arrays inside a (nested) dual, depth first."""
    return _leaves(x.re) + _leaves(x.ep) if isinstance(x, Dual) else [x]


def _columns(e, k, nd):
    """The k directional parts of a derivative e about a point of ndim nd.

    An array with one axis more than the point carries the directions on
    its leading axis; anything else is the same in every direction.
    """
    if isinstance(e, Dual):
        return [Dual(r, p) for r, p in zip(_columns(e.re, k, nd),
                                           _columns(e.ep, k, nd))]
    if np.ndim(e) == nd + 1:
        return e.tolist() if nd == 0 else list(e)  # floats, as a scalar pass
    return [e] * k


def jacobian_columns(fn, xs):
    """Columns of the Jacobian of fn at xs; entries keep duals.

    One vector-mode ``jvp``: xs[i] is seeded with the i-th unit vector on a
    leading direction axis of length k, and each output's derivative is
    split into its k columns afterwards.  Column j equals the derivative
    part of ``jvp`` along the j-th unit vector alone, bit for bit.  Points
    whose derivative parts already carry a direction axis are refused: the
    two axes would meet in one place.
    """
    k = len(xs)
    if not k:
        return []
    if any(np.ndim(e) > np.ndim(value(x))
           for x in xs if isinstance(x, Dual) for e in _leaves(x.ep)):
        raise ValueError("jacobian_columns of a point that already carries "
                         "a direction axis")
    seeds = []
    for i, x in enumerate(xs):
        e = np.zeros((k,) + np.shape(value(x)))
        e[i] = 1.0
        seeds.append(e)
    vals, eps = jvp(fn, xs, seeds)
    rows = [_columns(e, k, np.ndim(value(v))) for v, e in zip(vals, eps)]
    return [[r[j] for r in rows] for j in range(k)]


def jacobian(fn, xs):
    """Dense Jacobian of fn: R^k -> R^m at xs as an (..., m, k) array.

    xs is k floats, or k arrays of one shape (...).
    """
    cols = jacobian_columns(fn, xs)
    out = np.zeros(np.shape(xs[0] if len(xs) else 0.0)
                   + (len(cols[0]) if cols else len(fn(xs)), len(xs)))
    for j, col in enumerate(cols):
        for i, e in enumerate(col):
            out[..., i, j] = value(e)
    return out


def fd_jacobian(fn, xs, h):
    """Central finite-difference Jacobian, the standard cross-check for AD.

    As for :func:`jacobian`, the result is an (..., m, k) array: xs is k
    floats or k arrays of one shape (...), or fn stacks its outputs.
    """
    k = len(xs)
    cols = []
    for j in range(k):
        xp = list(xs)
        xm = list(xs)
        xp[j] = xp[j] + h
        xm[j] = xm[j] - h
        fp = [value(c) for c in fn(xp)]
        fm = [value(c) for c in fn(xm)]
        cols.append([(a - b) / (2.0 * h) for a, b in zip(fp, fm)])
    m = len(cols[0]) if cols else 0
    out = np.zeros(np.broadcast_shapes(*(np.shape(e) for col in cols
                                         for e in col)) + (m, k))
    for j, col in enumerate(cols):
        for i, e in enumerate(col):
            out[..., i, j] = e
    return out


def pack(rows):
    """A matrix given as rows of entries, as an array or a Dual of arrays.

    Entries may be floats or duals of any depth; a float entry of a dual
    matrix gets derivative 0.  Each part is an array of shape
    ``lead + (rows, columns)``, where ``lead`` holds the direction axes that
    entries carry in that part; an entry without them is broadcast.
    """
    shape = (len(rows), len(rows[0]) if rows else 0)
    return _pack([e for row in rows for e in row], shape)


def _pack(flat, shape):
    if any(map(isinstance, flat, repeat(Dual))):
        re, ep = zip(*map(_parts, flat))
        return Dual(_pack(re, shape), _pack(ep, shape))
    try:
        a = np.array(flat, dtype=float)
    except ValueError:  # some entries carry direction axes, others do not
        lead = np.broadcast_shapes(*map(np.shape, flat))
        a = np.array([np.broadcast_to(e, lead) for e in flat])
    if a.ndim == 1:
        return a.reshape(shape)
    return np.moveaxis(a.reshape(shape + a.shape[1:]), (0, 1), (-2, -1))


def unpack(a):
    """Rows of entries of a packed matrix, the inverse of :func:`pack`."""
    if isinstance(a, Dual):
        return [[Dual(r, e) for r, e in zip(rr, er)]
                for rr, er in zip(unpack(a.re), unpack(a.ep))]
    if a.ndim == 2:
        return a.tolist()
    return [list(row) for row in np.moveaxis(a, (-2, -1), (0, 1))]


def transpose(a):
    """A packed matrix transposed: the matrix axes of every part swapped."""
    if isinstance(a, Dual):
        return Dual(transpose(a.re), transpose(a.ep))
    return np.swapaxes(a, -1, -2)
