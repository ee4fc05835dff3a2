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
from .ad import Dual, value
from .errors import NotDifferentiable, OutOfChart, SamplingFailure
from .tolerances import DEFAULT


def split_components(arr):
    """(m,) array -> list of floats; (n, m) array -> list of (n,) columns."""
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        return [float(x) for x in a]
    return [a[..., i] for i in range(a.shape[-1])]


def merge_components(comps):
    """Inverse of :func:`split_components`; strips dual parts."""
    vals = [value(c) for c in comps]
    if not vals:
        return np.zeros(0)
    arrs = [np.asarray(v, dtype=float) for v in vals]
    shape = np.broadcast_shapes(*[a.shape for a in arrs])
    if shape == ():
        return np.asarray(vals, dtype=float)
    return np.stack([np.broadcast_to(a, shape) for a in arrs], axis=-1)


def path_sampler(draw):
    """Make ``sample_path(params, rng, closed, n=None)`` from a batch sampler.

    ``draw(self, params, rng, closed, n)`` returns n paths stacked as
    (n, nodes, ambient).  ``n=None`` asks for one (nodes, ambient) path: it
    is the only row of a batch of one, so a single path and the first row of
    ``n=1`` consume the random stream identically.
    """
    @functools.wraps(draw)
    def sample_path(self, params, rng, closed, n=None, **options):
        paths = draw(self, params, rng, closed, 1 if n is None else n,
                     **options)
        return paths[0] if n is None else paths

    return sample_path


def redraw_rejected(n, draw, accept, max_rounds, what):
    """n accepted rows, each redrawn until it is accepted.

    ``draw(rows)`` proposes one candidate for each index in ``rows`` and
    ``accept(cand)`` says which candidates to keep; rejected rows are
    proposed again, in index order, for at most ``max_rounds`` rounds.
    """
    todo = np.arange(n)
    out = None
    for _ in range(max_rounds):
        cand = draw(todo)
        good = np.asarray(accept(cand), dtype=bool)
        if out is None:
            out = np.empty((n,) + cand.shape[1:])
        out[todo[good]] = cand[good]
        todo = todo[~good]
        if todo.size == 0:
            return out
    raise SamplingFailure(f"{what} exhausted")


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
    def chart_margin(self, chart_id, amb):
        return self.charts[chart_id].margin(split_components(amb))

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
        amb = np.asarray(amb, dtype=float)
        if chart_id is None:
            chart_id = self.best_chart(amb)
        elif value(self.chart_margin(chart_id, amb)) <= 0.0:
            raise OutOfChart(f"{self.name}: point outside chart {chart_id}")
        coords = merge_components(self.charts[chart_id].fwd(split_components(amb)))
        return Point(self, int(chart_id), coords, amb)

    def point_from_coords(self, chart_id, coords):
        coords = np.asarray(coords, dtype=float)
        amb = merge_components(self.charts[chart_id].inv(list(coords)))
        return Point(self, int(chart_id), coords, amb)

    # -- metric helpers ------------------------------------------------------
    def distance(self, a, b):
        """Ambient Euclidean distance; accepts arrays of stacked points."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return np.sqrt(np.sum(d * d, axis=-1))

    def geodesic_distance(self, a, b):
        """Intrinsic distance; the default falls back to the ambient one."""
        return self.distance(a, b)

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
    manifold: ChartedManifold
    chart_id: int
    coords: np.ndarray
    ambient: np.ndarray

    def __post_init__(self):
        self.coords.setflags(write=False)
        self.ambient.setflags(write=False)

    def close_to(self, other, tol=DEFAULT.tol_chart):
        return float(self.manifold.distance(self.ambient, other.ambient)) < tol

    def __repr__(self):
        return f"Point({self.manifold.name}#{self.chart_id}, {np.round(self.ambient, 6)})"


@dataclass(frozen=True)
class Tangent:
    base: Point
    vel: np.ndarray

    def __post_init__(self):
        self.vel.setflags(write=False)

    @property
    def manifold(self):
        return self.base.manifold

    def ambient_vel(self):
        """Push the chart velocity to the embedding: d(inv)(coords) . vel."""
        chart = self.base.manifold.charts[self.base.chart_id]
        _, eps = ad.jvp(chart.inv, list(self.base.coords), list(self.vel))
        return np.asarray([value(e) for e in eps], dtype=float)

    def __repr__(self):
        return f"Tangent({self.base!r}, vel={np.round(self.vel, 6)})"


def tangent_from_ambient(manifold, amb, amb_vel, chart_id=None):
    """Build a tangent from ambient position and ambient velocity."""
    p = manifold.point_from_ambient(amb, chart_id)
    chart = manifold.charts[p.chart_id]
    _, eps = ad.jvp(chart.fwd, list(np.asarray(amb, dtype=float)),
                    list(np.asarray(amb_vel, dtype=float)))
    vel = np.asarray([value(e) for e in eps], dtype=float)
    return Tangent(p, vel)


@dataclass(frozen=True)
class SecondTangent:
    """Element of T(TM) in one chart, as the 4-tuple (x, y, z, w)."""

    manifold: ChartedManifold
    chart_id: int
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
    """

    def __init__(self, source, target, fn, order=np.inf, name="map",
                 domain=None, preimage_branches=None):
        self.source = source
        self.target = target
        self.fn = fn
        self.order = order
        self.name = name
        self.domain = domain
        self.preimage_branches = preimage_branches

    def in_domain(self, amb):
        return True if self.domain is None else bool(self.domain(split_components(amb)))

    def at(self, p: Point, chart_id=None) -> Point:
        if not self.in_domain(p.ambient):
            raise OutOfChart(f"{self.name}: point outside declared domain")
        out = merge_components(self.fn(split_components(p.ambient)))
        return self.target.point_from_ambient(out, chart_id)

    def apply_batch(self, amb):
        """Apply to stacked ambient points, (n, m) -> (n, m')."""
        return merge_components(self.fn(split_components(np.asarray(amb, dtype=float))))

    def local(self, ci, cj):
        src_chart = self.source.charts[ci]
        tgt_chart = self.target.charts[cj]

        def rep(coords):
            return tgt_chart.fwd(self.fn(src_chart.inv(coords)))

        return rep

    def then(self, other: "SmoothMap") -> "SmoothMap":
        if other.source is not self.target:
            raise ValueError("composition mismatch")

        def fn(comps):
            return other.fn(self.fn(comps))

        return SmoothMap(self.source, other.target, fn,
                         order=min(self.order, other.order),
                         name=f"{other.name}.{self.name}")

    def __repr__(self):
        return f"<SmoothMap {self.name}: {self.source.name} -> {self.target.name}>"


def identity_map(m: ChartedManifold) -> SmoothMap:
    return SmoothMap(m, m, lambda c: list(c), name=f"id_{m.name}")


def constant_map(source, target_point: Point) -> SmoothMap:
    amb = [float(x) for x in target_point.ambient]

    def fn(comps):
        probe = comps[0] if comps else 0.0
        zero = probe * 0.0
        return [zero + a for a in amb]

    return SmoothMap(source, target_point.manifold, fn,
                     name=f"const_{target_point.manifold.name}")


def transition(p: Point, chart_j: int) -> Point:
    """Express the same point in another chart of its manifold."""
    m = p.manifold
    if value(m.chart_margin(chart_j, p.ambient)) <= 0.0:
        raise OutOfChart(f"{m.name}: point outside chart {chart_j}")
    coords = merge_components(m.charts[chart_j].fwd(split_components(p.ambient)))
    return Point(m, int(chart_j), coords, p.ambient)


def tangent_transition(t: Tangent, chart_j: int) -> Tangent:
    """Chart change for tangents: velocity transforms by the transition Jacobian."""
    m = t.manifold
    p = transition(t.base, chart_j)
    chart_i = m.charts[t.base.chart_id]
    chart_j_ = m.charts[chart_j]

    def trans(coords):
        return chart_j_.fwd(chart_i.inv(coords))

    _, eps = ad.jvp(trans, list(t.base.coords), list(t.vel))
    return Tangent(p, np.asarray([value(e) for e in eps], dtype=float))


def tangent_map(f: SmoothMap, v: Tangent, target_chart=None) -> Tangent:
    """First-order pushforward computed with one dual-number pass."""
    if f.order < 1:
        raise NotDifferentiable(f"{f.name} is not declared C^1")
    p = v.base
    if not f.in_domain(p.ambient):
        raise OutOfChart(f"{f.name}: tangent base outside domain")
    q_amb = merge_components(f.fn(split_components(p.ambient)))
    cj = f.target.best_chart(q_amb) if target_chart is None else target_chart
    rep = f.local(p.chart_id, cj)
    vals, eps = ad.jvp(rep, list(p.coords), list(v.vel))
    q = Point(f.target, int(cj), np.asarray([value(x) for x in vals], dtype=float),
              q_amb)
    return Tangent(q, np.asarray([value(e) for e in eps], dtype=float))


def second_tangent_map(f: SmoothMap, s: SecondTangent, target_chart=None) -> SecondTangent:
    """Second-order pushforward via one level of dual nesting.

    In charts the 4-tuple transforms as
    (x, y, z, w) -> (f(x), df(x,y), df(x,z), df(x,w) + d2f(x,y,z)).
    """
    if f.order < 2:
        raise NotDifferentiable(f"{f.name} is not declared C^2")
    m = s.manifold
    p_amb = merge_components(m.charts[s.chart_id].inv(list(s.x)))
    if not f.in_domain(p_amb):
        raise OutOfChart(f"{f.name}: second tangent base outside domain")
    q_amb = merge_components(f.fn(split_components(p_amb)))
    cj = f.target.best_chart(q_amb) if target_chart is None else target_chart
    rep = f.local(s.chart_id, cj)
    seeded = [Dual(Dual(float(x), float(y)), Dual(float(z), float(w)))
              for x, y, z, w in zip(s.x, s.y, s.z, s.w)]
    out = rep(seeded)
    xs, ys, zs, ws = [], [], [], []
    for o in out:
        if isinstance(o, Dual):
            inner = o.re if isinstance(o.re, Dual) else Dual(o.re, 0.0)
            outer = o.ep if isinstance(o.ep, Dual) else Dual(o.ep, 0.0)
        else:
            inner = Dual(o, 0.0)
            outer = Dual(0.0, 0.0)
        xs.append(value(inner.re))
        ys.append(value(inner.ep))
        zs.append(value(outer.re))
        ws.append(value(outer.ep))
    return SecondTangent(f.target, int(cj), np.asarray(xs), np.asarray(ys),
                         np.asarray(zs), np.asarray(ws))


def map_jacobian(f: SmoothMap, p: Point, target_chart=None):
    """Jacobian of the chart representative of f at p."""
    q_amb = merge_components(f.fn(split_components(p.ambient)))
    cj = f.target.best_chart(q_amb) if target_chart is None else target_chart
    rep = f.local(p.chart_id, cj)
    return ad.jacobian(rep, list(p.coords)), int(cj)


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
        base_amb = self.base_manifold.sample(rng, n)
        shape = (n, self.base_manifold.dim) if n is not None else (self.base_manifold.dim,)
        xi = rng.normal(size=shape)
        if n is None:
            p = self.base_manifold.point_from_ambient(base_amb)
            v = Tangent(p, xi)
            return np.concatenate([base_amb, v.ambient_vel()])
        rows = []
        for k in range(n):
            p = self.base_manifold.point_from_ambient(base_amb[k])
            rows.append(np.concatenate([base_amb[k], Tangent(p, xi[k]).ambient_vel()]))
        return np.stack(rows)


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
        parts = [f.sample(rng, n) for f in self.factors]
        return np.concatenate([np.atleast_1d(p) for p in parts], axis=-1)

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        parts = [f.sample_path(params, rng, closed, n) for f in self.factors]
        return np.concatenate(parts, axis=-1)


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


class OpenSubManifold(ChartedManifold):
    """Open subset cut out by an ambient predicate; charts are inherited."""

    def __init__(self, base: ChartedManifold, pred, name=None):
        self.base_manifold = base
        self.pred = pred
        super().__init__(name or f"{base.name}|open", base.dim, base.ambient_dim,
                         base.charts, injectivity_radius=base.injectivity_radius)

    def contains(self, amb):
        return bool(np.all(self.pred(np.asarray(amb, dtype=float))))

    def geodesic_distance(self, a, b):
        return self.base_manifold.geodesic_distance(a, b)

    def sample(self, rng, n=None, max_tries=200):
        if n is None:
            for _ in range(max_tries):
                amb = self.base_manifold.sample(rng)
                if self.contains(amb):
                    return amb
            raise SamplingFailure(f"{self.name}: rejection sampling exhausted")
        rows = []
        for _ in range(max_tries):
            cand = np.atleast_2d(self.base_manifold.sample(rng, n))
            keep = np.asarray(self.pred(cand), dtype=bool)
            rows.extend(cand[keep])
            if len(rows) >= n:
                return np.stack(rows[:n])
        raise SamplingFailure(f"{self.name}: rejection sampling exhausted")

    @path_sampler
    def sample_path(self, params, rng, closed, n, max_tries=5000):
        """Paths inside the subset; a path leaving it is redrawn whole."""
        return redraw_rejected(
            n, lambda rows: self.base_manifold.sample_path(
                params, rng, closed, len(rows)),
            lambda cand: np.all(self.pred(cand), axis=-1), max_tries,
            f"{self.name}: path rejection sampling")
