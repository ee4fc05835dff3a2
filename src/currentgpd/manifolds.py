"""Charted manifolds, points, (second) tangents, and smooth maps.

Every manifold carries an embedding into some R^m ("ambient" coordinates)
used for distances, equality, and serialization.  Charts map ambient
representations to chart coordinates and back.  All chart maps and all
structure maps are written component-wise against :mod:`currentgpd.ad`, so
they evaluate on plain floats, on dual numbers (automatic differentiation)
and on numpy arrays (whole grids at once).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import ad
from .ad import value
from .errors import OutOfChart


def components_first(a):
    """``np.moveaxis(a, -1, 0)``, the same view, by one transpose."""
    return a.transpose(-1, *range(a.ndim - 1))


def components_last(a):
    """``np.moveaxis(a, 0, -1)``, the same view, by one transpose."""
    return a.transpose(*range(1, a.ndim), 0)


def split_components(arr):
    """(m,) array -> list of floats; (..., m) array -> list of m (...) arrays.

    Structure maps and chart maps take and return such lists.  The arrays
    are views ``a[..., i]``, taken with :func:`components_first`: on a
    component-major array (see :func:`component_major`) each one is a
    contiguous block of memory, on a C-order array a strided column.
    """
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        return [float(x) for x in a]
    return list(components_first(a))


def merge_components(comps):
    """Inverse of :func:`split_components`; strips dual parts.

    The components are stacked on a leading axis, so each one stays a
    contiguous block, and the (..., m) result is a component-major view of
    that stack.
    """
    vals = [value(c) for c in comps]
    if not vals:
        return np.zeros(0)
    arrs = [np.asarray(v, dtype=float) for v in vals]
    shape = np.broadcast_shapes(*[a.shape for a in arrs])
    if shape == ():
        return np.asarray(vals, dtype=float)
    return components_last(
        np.stack([np.broadcast_to(a, shape) for a in arrs], axis=0))


def component_major(a):
    """The (..., m) array a with its m components in contiguous blocks.

    The shape and the values are those of a; only the memory order changes,
    so :func:`split_components` hands out contiguous components and the
    structure maps stop walking memory with stride m.  An array that is
    already component-major, as every path sampler's draw is, comes back
    uncopied.
    """
    return components_last(
        np.ascontiguousarray(components_first(np.asarray(a))))


def concat_components(parts):
    """``np.concatenate(parts, axis=-1)``, written component-major.

    np.concatenate follows the memory order of its inputs, so a mix of
    component-major and C-order parts would come out in neither order.
    """
    return merge_components([c for p in parts for c in split_components(p)])


def _pairwise_sum(terms):
    """The sum numpy's ``np.sum(..., axis=-1)`` gives on a contiguous last axis.

    numpy adds fewer than 8 terms in sequence, up to 128 terms as 8 running
    partial sums combined pairwise, and splits a longer run in two halves
    (the first a multiple of 8) summed recursively.  Following that order
    term by term gives the same bits on whole arrays of terms.
    """
    n = len(terms)
    if n < 8:
        return functools.reduce(operator.add, terms)
    if n <= 128:
        tail = n - n % 8
        r = list(terms[:8])
        for i in range(8, tail, 8):
            r = [r[j] + terms[i + j] for j in range(8)]
        return functools.reduce(operator.add, terms[tail:],
                                ((r[0] + r[1]) + (r[2] + r[3]))
                                + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


def squared_distance(a, b):
    """Sum of (a_i - b_i)**2 over two component lists of floats or arrays,
    in numpy's pairwise order (:func:`_pairwise_sum`)."""
    diffs = (x - y for x, y in zip(a, b, strict=True))
    return _pairwise_sum([d * d for d in diffs])


def path_sampler(draw):
    """Make ``sample_path(params, rng, closed, n=None)`` from a batch sampler.

    ``draw(self, params, rng, closed, n)`` returns n paths stacked as
    (n, nodes, ambient).  ``n=None`` asks for one (nodes, ambient) path: it
    is the only row of a batch of one, so a single path and the first row of
    ``n=1`` consume the random stream identically.
    """
    @functools.wraps(draw)
    def sample_path(self, params, rng, closed, n=None):
        paths = draw(self, params, rng, closed, 1 if n is None else n)
        return paths[0] if n is None else paths

    return sample_path


class Chart:
    """One chart: interior margin, ambient->coords map, and its inverse."""

    def __init__(self, name, margin, fwd, inv):
        self.name = name
        self.margin = margin      # ambient components -> scalar/array, >0 inside
        self.fwd = fwd            # ambient components -> coordinate components
        self.inv = inv            # coordinate components -> ambient components


class LazyCharts:
    """Charts with ids 0..n-1, each built by ``build(id)`` on first use.

    ``n`` is a Python int and may exceed ``sys.maxsize``, where ``len()``
    raises OverflowError; use :func:`chart_count` instead.  Iterating builds
    every chart, so only small sequences are iterated.
    """

    def __init__(self, n, build):
        self.n = n
        self._build = build
        self._built = {}

    def __len__(self):
        return self.n

    def __getitem__(self, chart_id):
        i = operator.index(chart_id)
        if not 0 <= i < self.n:
            raise IndexError(f"chart id {i} not below {self.n}")
        if i not in self._built:
            self._built[i] = self._build(i)
        return self._built[i]

    def __iter__(self):
        return (self[i] for i in range(self.n))


def chart_count(m):
    """Number of charts of m, as a Python int even past ``sys.maxsize``."""
    return m.charts.n if isinstance(m.charts, LazyCharts) else len(m.charts)


def node_chart(m, ids):
    """The chart of each node, as one chart of m.

    ids is a chart id, or an array of chart ids along a trailing node axis.
    Where the nodes lie in several charts, a chart map gathers the nodes of
    each chart (:func:`ad.take`), maps them together and scatters the
    results back (:func:`ad.scatter`).
    """
    if isinstance(ids, int):
        return m.charts[ids]
    groups = np.unique(ids)
    if groups.size == 1:
        return m.charts[int(groups[0])]
    rows = [np.flatnonzero(ids == c) for c in groups]
    charts = [m.charts[int(c)] for c in groups]

    def per_node(which):
        def fn(comps):
            outs = [getattr(chart, which)([ad.take(c, r) for c in comps])
                    for chart, r in zip(charts, rows)]
            return [ad.scatter(parts, rows, len(ids)) for parts in zip(*outs)]

        return fn

    return Chart("per-node", None, per_node("fwd"), per_node("inv"))


class ChartedManifold:
    """Finite-dimensional manifold with finitely many explicit charts.

    ``charts`` is indexed by chart id: a list, or :class:`LazyCharts` when
    there are too many charts to build up front.  It is kept, not copied.
    """

    def __init__(self, name, dim, ambient_dim, charts, injectivity_radius=np.inf):
        self.name = name
        self.dim = dim
        self.ambient_dim = ambient_dim
        self.charts = charts
        self.injectivity_radius = injectivity_radius
        self._tangent_bundle = None

    # -- chart bookkeeping -------------------------------------------------
    def best_chart(self, amb):
        comps = split_components(amb)
        margins = [np.asarray(c.margin(comps), dtype=float) for c in self.charts]
        stacked = np.stack(margins, axis=0)
        best = np.argmax(stacked, axis=0)
        if stacked.ndim == 1:
            if float(stacked[best]) <= 0.0:
                raise OutOfChart(f"{self.name}: no chart contains the point")
            return int(best)
        if np.any(np.take_along_axis(stacked, best[None], axis=0) <= 0.0):
            raise OutOfChart(f"{self.name}: some sample lies in no chart")
        return best

    # -- point construction -------------------------------------------------
    def point_from_ambient(self, amb, chart_id=None):
        """The point amb, in its best chart or in chart ``chart_id``.

        Stacked (n, m) rows make one stacked :class:`Point`, each row in its
        best chart, or all of them in chart ``chart_id``.
        """
        amb = np.asarray(amb, dtype=float)
        if chart_id is None:
            chart_id = self.best_chart(amb)
        elif np.any(self.charts[chart_id].margin(split_components(amb)) <= 0):
            raise OutOfChart(f"{self.name}: point outside chart {chart_id}")
        coords = merge_components(
            node_chart(self, chart_id).fwd(split_components(amb)))
        return Point(self, chart_id, coords, amb)

    def point_from_coords(self, chart_id, coords):
        coords = np.asarray(coords, dtype=float)
        amb = merge_components(
            node_chart(self, chart_id).inv(split_components(coords)))
        return Point(self, chart_id, coords, amb)

    # -- metric helpers ------------------------------------------------------
    def distance(self, a, b):
        """Ambient Euclidean distance; accepts arrays of stacked points.

        It has the bits of ``np.sqrt(np.sum(d * d, axis=-1))`` for the
        difference d in any memory order (:func:`squared_distance`).
        """
        return np.sqrt(squared_distance(split_components(a),
                                        split_components(b)))

    def geodesic_distance(self, a, b):
        """Intrinsic distance; the default falls back to the ambient one."""
        return self.distance(a, b)

    def speed(self, p_amb, v_amb):
        """Length of each (..., m) ambient velocity row, one per row; the
        squares add in component order."""
        return np.sqrt(functools.reduce(
            operator.add, [c * c for c in split_components(v_amb)]))

    def coherence_bound(self):
        if np.isinf(self.injectivity_radius):
            return np.inf
        return 0.5 * self.injectivity_radius

    # -- sampling ------------------------------------------------------------
    def sample(self, rng, n=None):
        raise NotImplementedError(self.name)

    def sample_path(self, params, rng, closed, n=None):
        """Coherent random paths sampled at `params`.

        Returns one (nodes, ambient) path for ``n=None`` and n paths stacked
        as (n, nodes, ambient) for an integer n; see :func:`path_sampler`.
        """
        raise NotImplementedError(self.name)

    # -- derived manifolds ----------------------------------------------------
    def tangent_bundle(self):
        if self._tangent_bundle is None:
            self._tangent_bundle = TangentBundleManifold(self)
        return self._tangent_bundle

    def __repr__(self):
        return f"<manifold {self.name} dim={self.dim} ambient={self.ambient_dim}>"


@dataclass(frozen=True)
class Point:
    """A point in a chart: coords (d,) and ambient (m,) with one chart id.

    A stacked point has (n, d) coords and (n, m) ambient rows, and one chart
    id for all rows or an (n,) array of chart ids, one per row.  Its chart
    reads each row in the row's own chart (:func:`node_chart`), so each row
    gets the bits it gets alone.
    """

    manifold: ChartedManifold
    chart_id: int | np.ndarray
    coords: np.ndarray
    ambient: np.ndarray

    def __post_init__(self):
        self.coords.setflags(write=False)
        self.ambient.setflags(write=False)

    @property
    def chart(self):
        return node_chart(self.manifold, self.chart_id)

    def __repr__(self):
        return f"Point({self.manifold.name}#{self.chart_id}, {np.round(self.ambient, 6)})"


@dataclass(frozen=True)
class Tangent:
    """A chart velocity at a point; stacked along with a stacked point."""

    base: Point
    vel: np.ndarray

    def __post_init__(self):
        self.vel.setflags(write=False)

    def ambient_vel(self):
        """Push the chart velocity to the embedding: d(inv)(coords) . vel."""
        _, eps = ad.jvp(self.base.chart.inv,
                        split_components(self.base.coords),
                        split_components(self.vel))
        return merge_components(eps)

    def __repr__(self):
        return f"Tangent({self.base!r}, vel={np.round(self.vel, 6)})"


def tangent_from_ambient(p: Point, amb_vel):
    """The tangent at p with ambient velocity amb_vel, in p's chart."""
    _, eps = ad.jvp(p.chart.fwd, split_components(p.ambient),
                    split_components(amb_vel))
    return Tangent(p, merge_components(eps))


@dataclass(frozen=True)
class SecondTangent:
    """Element of T(TM) in a chart, as the 4-tuple (x, y, z, w); stacked
    rows carry chart ids as a stacked :class:`Point` does."""

    manifold: ChartedManifold
    chart_id: int | np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def tuple4(self):
        return (self.x, self.y, self.z, self.w)


def canonical_flip(s: SecondTangent) -> SecondTangent:
    """Swap the two middle chart slots; an exact coordinate permutation."""
    return SecondTangent(s.manifold, s.chart_id, s.x, s.z, s.y, s.w)


def second_tangent_projection(s: SecondTangent) -> Tangent:
    """Bundle projection T(TM) -> TM in chart coordinates."""
    p = s.manifold.point_from_coords(s.chart_id, s.x)
    return Tangent(p, np.asarray(s.y, dtype=float))


class SmoothMap:
    """Map between charted manifolds, given by an ambient evaluation rule.

    ``fn`` takes and returns component sequences; the chart representative
    in charts (i, j) is fwd_j . fn . inv_i, which is what AD differentiates.

    A local diffeomorphism that :func:`~currentgpd.gridmaps.local_diffeo_inverse`
    inverts also gives ``preimage_branches(targets, near)`` and a
    ``branch_separation`` attribute, the least distance between two
    preimages of a point.  ``preimage_branches`` takes stacked rows, targets
    (B, m') in the target's ambient space and near (B, m) in the source's,
    and returns candidates (B, K, m), with the same K >= 1 at every call:
    row b holds preimages of targets[b] near near[b], one of which a lift
    from near[b] steps to.  A row whose target has no local preimage is
    NaN.  Each row is computed on its own, so it has the bits that it gets
    in a stack of one.
    """

    def __init__(self, source, target, fn, name="map",
                 preimage_branches=None):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name
        self.preimage_branches = preimage_branches

    def apply_batch(self, amb):
        """Apply to stacked ambient points, (n, m) -> (n, m')."""
        return merge_components(self.fn(split_components(np.asarray(amb, dtype=float))))

    def local(self, ci, cj):
        src_chart = node_chart(self.source, ci)
        tgt_chart = node_chart(self.target, cj)

        def rep(coords):
            return tgt_chart.fwd(self.fn(src_chart.inv(coords)))

        return rep

    def __repr__(self):
        return f"<SmoothMap {self.name}: {self.source.name} -> {self.target.name}>"


def tangent_map(f: SmoothMap, v: Tangent, target_chart=None) -> Tangent:
    """First-order pushforward computed with one dual-number pass.

    Each image is read in its best target chart, or in ``target_chart``: a
    chart id, or one per row of a stacked tangent.
    """
    p = v.base
    q_amb = merge_components(f.fn(split_components(p.ambient)))
    cj = f.target.best_chart(q_amb) if target_chart is None else target_chart
    rep = f.local(p.chart_id, cj)
    vals, eps = ad.jvp(rep, split_components(p.coords),
                       split_components(v.vel))
    q = Point(f.target, cj, merge_components(vals), q_amb)
    return Tangent(q, merge_components(eps))


def map_jacobian(f: SmoothMap, amb):
    """Chart Jacobians of f at stacked source points, (..., m) -> (..., n, k).

    Points are read in their best source chart and their images in their
    best target chart, as in :func:`tangent_map`; one :func:`ad.jacobian`
    takes all points, each with the bits it gets alone.
    """
    flat = np.reshape(amb, (-1, f.source.ambient_dim))
    ci = f.source.best_chart(flat)
    cj = f.target.best_chart(f.apply_batch(flat))
    coords = node_chart(f.source, ci).fwd(split_components(flat))
    out = np.empty((len(flat), f.target.dim, f.source.dim))
    out[...] = ad.jacobian(f.local(ci, cj), coords)
    return out.reshape(np.shape(amb)[:-1] + out.shape[1:])


# ---------------------------------------------------------------------------
# derived manifolds
# ---------------------------------------------------------------------------

class TangentBundleManifold(ChartedManifold):
    """TM as a charted manifold; ambient = (point, ambient velocity)."""

    def __init__(self, base: ChartedManifold):
        self.base_manifold = base
        m = base.ambient_dim
        charts = LazyCharts(chart_count(base), lambda i: self._lift_chart(
            base.charts[i], m, base.dim))
        super().__init__(f"T({base.name})", 2 * base.dim, 2 * m, charts,
                         injectivity_radius=base.injectivity_radius)

    @staticmethod
    def _lift_chart(c: Chart, m, d):
        def margin(comps):
            return c.margin(comps[:m])

        def fwd(comps):
            p, v = comps[:m], comps[m:]
            x, xi = ad.jvp(c.fwd, p, v)
            return list(x) + list(xi)

        def inv(comps):
            x, xi = comps[:d], comps[d:]
            p, v = ad.jvp(c.inv, x, xi)
            return list(p) + list(v)

        return Chart(f"T{c.name}", margin, fwd, inv)

    def geodesic_distance(self, a, b):
        m = self.base_manifold.ambient_dim
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        base = self.base_manifold.geodesic_distance(a[..., :m], b[..., :m])
        dv = a[..., m:] - b[..., m:]
        return np.maximum(base, np.sqrt(np.sum(dv * dv, axis=-1)))

    def sample(self, rng, n=None):
        # a single draw is row 0 of a batch of one: numpy draws the same
        # numbers for a size-1 draw as for a scalar one; the velocities
        # then push forward in one pass, with each row's bits
        base = self.base_manifold
        amb = base.sample(rng, 1 if n is None else n)
        xi = rng.normal(size=(len(amb), base.dim))
        vel = Tangent(base.point_from_ambient(amb), xi).ambient_vel()
        out = np.concatenate([amb, vel], axis=-1)
        return out[0] if n is None else out


class ProductManifold(ChartedManifold):
    """Finite product; ambient and charts are concatenations of the factors.

    A product chart is one chart per factor.  Its id is the mixed-radix
    number of the factor chart ids, the last factor varying fastest, so ids
    follow ``itertools.product`` order.  The product of n factors with k
    charts each has k^n charts; they are built on demand (see
    :class:`LazyCharts`) and ``best_chart`` scores only factor charts.
    """

    def __init__(self, factors, name=None):
        self.factors = list(factors)
        dims = [f.dim for f in self.factors]
        ambs = [f.ambient_dim for f in self.factors]
        self.amb_offsets = np.concatenate([[0], np.cumsum(ambs)]).astype(int)
        self.dim_offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.radices = [chart_count(f) for f in self.factors]
        charts = LazyCharts(math.prod(self.radices), self._chart_by_id)
        inj = min([f.injectivity_radius for f in self.factors], default=np.inf)
        super().__init__(name or "x".join(f.name for f in self.factors),
                         sum(dims), sum(ambs), charts, injectivity_radius=inj)

    def _chart_by_id(self, chart_id):
        combo = []
        for r in reversed(self.radices):
            chart_id, k = divmod(chart_id, r)
            combo.append(k)
        return self._product_chart(combo[::-1])

    def _product_chart(self, combo):
        factors = self.factors
        aoff, doff = self.amb_offsets, self.dim_offsets
        charts = [factors[i].charts[combo[i]] for i in range(len(factors))]

        def margin(comps):
            vals = [charts[i].margin(comps[aoff[i]:aoff[i + 1]])
                    for i in range(len(factors))]
            out = vals[0]
            for v in vals[1:]:
                out = np.minimum(out, v)
            return out

        def fwd(comps):
            out = []
            for i in range(len(factors)):
                out.extend(charts[i].fwd(list(comps[aoff[i]:aoff[i + 1]])))
            return out

        def inv(comps):
            out = []
            for i in range(len(factors)):
                out.extend(charts[i].inv(list(comps[doff[i]:doff[i + 1]])))
            return out

        name = "*".join(charts[i].name for i in range(len(factors)))
        return Chart(name, margin, fwd, inv)

    def best_chart(self, amb):
        """The id :meth:`ChartedManifold.best_chart` gives, ties included.

        A product chart's margin is the least of its factor margins, so the
        best margin is M* = min_i max_c m_i(c), and the first product chart
        in id order that reaches M* takes, in each factor, the first chart
        whose margin reaches M*.  Each factor chart is scored once.
        """
        comps = split_components(amb)
        aoff = self.amb_offsets
        scores = [np.stack([np.asarray(c.margin(comps[aoff[i]:aoff[i + 1]]),
                                       dtype=float) for c in f.charts], axis=-1)
                  for i, f in enumerate(self.factors)]
        reach = functools.reduce(np.minimum, [s.max(axis=-1) for s in scores])
        firsts = [np.argmax(s >= reach[..., None], axis=-1) for s in scores]
        if np.ndim(reach) == 0:
            if float(reach) <= 0.0:
                raise OutOfChart(f"{self.name}: no chart contains the point")
            chart_id = 0
            for r, k in zip(self.radices, firsts):
                chart_id = chart_id * r + int(k)
            return chart_id
        if np.any(reach <= 0.0):
            raise OutOfChart(f"{self.name}: some sample lies in no chart")
        # past int64, ids are Python ints in an object array
        dtype = np.int64 if self.charts.n <= np.iinfo(np.int64).max else object
        ids = np.zeros(reach.shape, dtype=dtype)
        for r, k in zip(self.radices, firsts):
            ids = ids * r + k.astype(dtype)
        return ids

    def split_ambient(self, amb):
        amb = np.asarray(amb, dtype=float)
        return [amb[..., self.amb_offsets[i]:self.amb_offsets[i + 1]]
                for i in range(len(self.factors))]

    def geodesic_distance(self, a, b):
        pa = self.split_ambient(a)
        pb = self.split_ambient(b)
        d = self.factors[0].geodesic_distance(pa[0], pb[0])
        for f, x, y in zip(self.factors[1:], pa[1:], pb[1:]):
            d = np.maximum(d, f.geodesic_distance(x, y))
        return d

    def sample(self, rng, n=None):
        return concat_components([f.sample(rng, n) for f in self.factors])

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        return concat_components([f.sample_path(params, rng, closed, n)
                                  for f in self.factors])


class DiscreteManifold(ChartedManifold):
    """Finite set of points as a 0-dimensional manifold (one chart each)."""

    def __init__(self, size, name=None):
        self.size = size
        charts = [self._element_chart(k) for k in range(size)]
        super().__init__(name or f"discrete{size}", 0, 1, charts)

    @staticmethod
    def _element_chart(k):
        def margin(comps):
            return 0.5 - abs(comps[0] - k)

        def fwd(comps):
            return []

        def inv(comps):
            return [float(k)]

        return Chart(f"e{k}", margin, fwd, inv)

    def geodesic_distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        same = np.abs(a[..., 0] - b[..., 0]) < 0.5
        return np.where(same, 0.0, np.inf)

    def sample(self, rng, n=None):
        if n is None:
            return np.asarray([float(rng.integers(self.size))])
        return rng.integers(self.size, size=(n, 1)).astype(float)

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        k = rng.integers(self.size, size=(n, 1, 1)).astype(float)
        return np.broadcast_to(k, (n, len(params), 1)).copy()
