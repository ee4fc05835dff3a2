"""Discretized mapping spaces: grid maps, sections, classifiers.

A map from a compact 1-dimensional source (circle or interval) into a
manifold is sampled on a uniform grid.  Coherence (consecutive samples
closer than half the injectivity radius) is the grid proxy for continuity;
it guarantees unique geodesic interpolation and valid winding increments.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass

import numpy as np

from . import ad
from .errors import (BranchAmbiguity, CoherenceLost, GeometryError,
                     OutsideNeighborhood, Unsupported)
from .linalg import numerical_ranks
from .manifolds import (ChartedManifold, Point, SmoothMap, Tangent,
                        map_jacobian, merge_components, split_components)
from .tolerances import DEFAULT

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    kind: str          # "circle" | "interval"
    n: int             # uniform samples
    ell: int = 1       # regularity order tracked by seminorms (0, 1, or 2)

    def __post_init__(self):
        if self.kind not in ("circle", "interval"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n < 8:
            raise ValueError("grids need at least 8 samples")
        if self.ell not in (0, 1, 2):
            raise ValueError("regularity order must be 0, 1, or 2")

    @property
    def closed(self):
        return self.kind == "circle"

    @property
    def spacing(self):
        if self.closed:
            return TWO_PI / self.n
        return 1.0 / (self.n - 1)

    def params(self):
        if self.closed:
            return TWO_PI * np.arange(self.n) / self.n
        return np.linspace(0.0, 1.0, self.n)


class GridMap:
    """A map from the grid into a manifold, stored as stacked ambient rows.

    The ambient array is (n, m) for one map; a stack of maps drawn on one
    grid is (..., n, m), and the coherence check runs over every map of
    the stack at once.
    """

    def __init__(self, grid: GridSpec, target: ChartedManifold, ambient,
                 delta_coh=None):
        self.grid = grid
        self.target = target
        self.ambient = np.asarray(ambient, dtype=float)
        if self.ambient.shape[-2:] != (grid.n, target.ambient_dim):
            raise ValueError("ambient array has the wrong shape")
        self.delta_coh = target.coherence_bound() if delta_coh is None else delta_coh
        self.check_coherence()

    def check_coherence(self):
        if not np.isfinite(self.delta_coh):
            return
        steps = self.step_sizes()
        step = float(np.max(steps, initial=0.0))  # 0.0 for an empty stack
        if not step < self.delta_coh:  # a NaN step is not coherent either
            raise CoherenceLost(
                f"step {step:.3f} at node {np.argmax(steps) % self.grid.n} "
                f"exceeds coherence bound {self.delta_coh:.3f}")

    def step_sizes(self):
        a = self.ambient
        if self.grid.closed:
            b = np.roll(a, -1, axis=-2)
            return np.asarray(self.target.geodesic_distance(a, b))
        return np.asarray(self.target.geodesic_distance(a[..., :-1, :],
                                                        a[..., 1:, :]))

    def unstack(self):
        """The maps of a stack, (B, n, m), as B grid maps with its bound.

        The stack's own coherence check covers each of them, so they take
        none of their own.
        """
        maps = []
        for amb in self.ambient:
            gm = copy.copy(self)
            gm.ambient = amb
            maps.append(gm)
        return maps

    def close_to(self, other, tol=DEFAULT.tol_chart):
        return float(np.max(self.target.distance(self.ambient, other.ambient))) < tol

    def __repr__(self):
        return (f"GridMap({self.grid.kind} n={self.grid.n} -> "
                f"{self.target.name})")


def constant_grid_map(grid, p: Point) -> GridMap:
    amb = np.tile(p.ambient, (grid.n, 1))
    return GridMap(grid, p.manifold, amb)


def stacked_grid_map(gm: GridMap, count) -> GridMap:
    """``count`` copies of gm as one stack of maps, (count, n, m), sharing
    gm's memory and its coherence bound."""
    return GridMap(gm.grid, gm.target,
                   np.broadcast_to(gm.ambient, (count,) + gm.ambient.shape),
                   delta_coh=gm.delta_coh)


def circle_winding_loop(grid, circle, k) -> GridMap:
    th = k * grid.params()
    n = max(1, abs(int(k)))
    return GridMap(grid, circle, np.stack([np.cos(th), np.sin(th)], axis=-1),
                   delta_coh=min(circle.coherence_bound() * n, math.pi - 1e-6))


def random_grid_map(grid, target, rng) -> GridMap:
    return GridMap(grid, target,
                   target.sample_path(grid.params(), rng, grid.closed))


class GridSection:
    """A section of the pulled-back tangent bundle along a grid map; over a
    stack of maps, a stack of sections."""

    def __init__(self, base: GridMap, vel_ambient):
        self.base = base
        self.vel_ambient = np.asarray(vel_ambient, dtype=float)
        if self.vel_ambient.shape != base.ambient.shape:
            raise ValueError("velocity array has the wrong shape")

    def __repr__(self):
        return f"GridSection(over {self.base!r})"


def section_from_chart_coeffs(gm: GridMap, coeffs) -> GridSection:
    """Build a section from per-node chart velocities, (..., n, d).

    Each node is read in its best chart, and the nodes of every map of a
    stack push their velocities to the embedding in one dual pass, as one
    stacked :class:`~currentgpd.manifolds.Point`: node i gets the bits of
    ``Tangent(p, coeffs[i]).ambient_vel()`` for
    ``p = gm.target.point_from_ambient(gm.ambient[i])`` alone.
    """
    m = gm.target
    amb = gm.ambient.reshape(-1, m.ambient_dim)
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, m.dim)
    vel = Tangent(m.point_from_ambient(amb), coeffs).ambient_vel()
    return GridSection(gm, vel.reshape(gm.ambient.shape))


def random_chart_coeffs(grid: GridSpec, dim, rng, scale=0.1):
    """Random smooth per-node chart velocities, (n, dim), for
    :func:`section_from_chart_coeffs`: three normals per component."""
    x = grid.params()
    coeffs = np.zeros((grid.n, dim))
    for j in range(dim):
        c = rng.normal(size=3) * scale
        if grid.closed:
            coeffs[:, j] = c[0] + c[1] * np.cos(x) + c[2] * np.sin(x)
        else:
            coeffs[:, j] = c[0] + c[1] * x + c[2] * x * x
    return coeffs


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------

def _finite_difference(arr, h, order, closed):
    """Differences along the node axis of (..., n, m) ambient rows."""
    a = np.asarray(arr, dtype=float)
    if order == 0:
        return a
    if closed:
        fwd = np.roll(a, -1, axis=-2)
        bwd = np.roll(a, 1, axis=-2)
        if order == 1:
            return (fwd - bwd) / (2.0 * h)
        return (fwd - 2.0 * a + bwd) / (h * h)
    out = np.zeros_like(a)
    if order == 1:
        out[..., 1:-1, :] = (a[..., 2:, :] - a[..., :-2, :]) / (2.0 * h)
        out[..., 0, :] = (a[..., 1, :] - a[..., 0, :]) / h
        out[..., -1, :] = (a[..., -1, :] - a[..., -2, :]) / h
        return out
    out[..., 1:-1, :] = (a[..., 2:, :] - 2.0 * a[..., 1:-1, :]
                         + a[..., :-2, :]) / (h * h)
    out[..., 0, :] = out[..., 1, :]
    out[..., -1, :] = out[..., -2, :]
    return out


def seminorm_distance(a: GridMap, b: GridMap) -> tuple:
    """Sup distances of ambient finite differences of orders 0..ell; for
    stacks of maps, the sup over every map of the stack."""
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    h = a.grid.spacing
    entries = []
    for j in range(a.grid.ell + 1):
        if j == 0:
            entries.append(float(np.max(a.target.distance(a.ambient, b.ambient))))
        else:
            da = _finite_difference(a.ambient, h, j, a.grid.closed)
            db = _finite_difference(b.ambient, h, j, b.grid.closed)
            entries.append(float(np.max(np.linalg.norm(da - db, axis=-1))))
    return tuple(entries)


# ---------------------------------------------------------------------------
# push-forwards
# ---------------------------------------------------------------------------

def pushforward(f: SmoothMap, gamma: GridMap, delta_coh=None) -> GridMap:
    """Compose f with every node; coherence is re-checked on the image."""
    out = f.apply_batch(gamma.ambient)
    return GridMap(gamma.grid, f.target, out, delta_coh=delta_coh)


def pushforward_tangent(f: SmoothMap, gamma: GridMap,
                        tau: GridSection) -> GridSection:
    """Nodewise tangent map, vectorized with array-coefficient duals."""
    if tau.base is not gamma and not tau.base.close_to(gamma):
        raise ValueError("section is not based over the given grid map")
    vals, eps = ad.jvp(f.fn, split_components(gamma.ambient),
                       split_components(tau.vel_ambient))
    return GridSection(GridMap(gamma.grid, f.target, merge_components(vals)),
                       merge_components(eps))


# ---------------------------------------------------------------------------
# rank classification of push-forwards
# ---------------------------------------------------------------------------

@dataclass
class PushforwardClassification:
    verdict: str


def classify_pushforward(f: SmoothMap, gamma: GridMap,
                         tol_rank=DEFAULT.tol_rank):
    """Block classification: the lifted map inherits exactly the per-node ranks.

    The tangent map of the push-forward is block diagonal with one Jacobian
    of f per node, so the lifted verdict is the conjunction over blocks.
    The node Jacobians come from one :func:`map_jacobian` call on the whole
    grid map, and their ranks from one stacked SVD.

    A stack of grid maps, gamma.ambient (B, n, m), takes one Jacobian call
    and one SVD over all its nodes and returns a list of B classifications,
    one per map; a lone grid map is a stack of one and gets its own.
    """
    dm, dn = f.source.dim, f.target.dim
    s = np.linalg.svd(map_jacobian(f, gamma.ambient), compute_uv=False)
    ranks = numerical_ranks(s, tol_rank).reshape(-1, gamma.grid.n)
    out = []
    for sub, imm in zip(np.all(ranks == dn, axis=-1).tolist(),
                        np.all(ranks == dm, axis=-1).tolist()):
        if sub and imm and dm == dn:
            verdict = "local_diffeo_on_trace"
        elif sub:
            verdict = "submersion_on_trace"
        elif imm:
            verdict = "immersion_on_trace"
        else:
            verdict = "neither"
        out.append(PushforwardClassification(verdict))
    return out if gamma.ambient.ndim > 2 else out[0]


# ---------------------------------------------------------------------------
# local inversion of lifted local diffeomorphisms
# ---------------------------------------------------------------------------

def local_diffeo_inverse(f: SmoothMap, gamma0: GridMap, eta: GridMap,
                         start: Point | None = None,
                         tol=DEFAULT.tol_theta):
    """Invert the push-forward of a local diffeomorphism node by node.

    Branches are selected by proximity to the previous node's lift (node 0:
    to `start`, default gamma0's first value); a coherent lift must close up
    on circle grids.  Failures report the offending node.  The map must
    supply stacked `preimage_branches` and `branch_separation` (see
    :class:`~currentgpd.manifolds.SmoothMap`); a lift steps at most half of
    the separation from node to node.

    A stack of targets, eta.ambient (B, n, m), is B walks, each from its own
    row of a stacked `start` (or of gamma0's first node), and the call
    returns a list of B outcomes: a walk's lift, or the error that it raises
    alone, unraised.  A lone target is a stack of one whose error is raised.
    The walk is one pass over the nodes: every walk's branch at a node comes
    from one (B, K, d) candidate array.  The checks then read all nodes of
    all walks at once, and a walk's outcome is decided at its first faulty
    node; what the pass steps to after it counts for nothing.  The residuals
    |f(lift) - eta| are taken in one push-forward.  The first node that
    fails names the error, as node by node: a residual at an earlier node
    fails before the walk's own error.
    """
    if f.preimage_branches is None:
        raise Unsupported(f"{f.name}: no preimage branches to choose from")
    m = f.source
    dist = m.geodesic_distance
    max_step = 0.5 * f.branch_separation
    ambiguity_gap = m.coherence_bound()
    if not np.isfinite(ambiguity_gap):
        ambiguity_gap = max_step
    n = eta.grid.n
    targets = eta.ambient.reshape(-1, n, f.target.ambient_dim)
    walks = np.arange(len(targets))
    prev = np.broadcast_to(
        start.ambient if start is not None else gamma0.ambient[..., 0, :],
        (len(targets), m.ambient_dim))
    # each node's candidates, their distances from the walk's previous
    # lift, and their order by it
    cands, dists, orders = [], [], []
    for i in range(n):
        cand = f.preimage_branches(targets[:, i], prev)
        d = dist(cand, prev[:, None])
        order = np.argsort(d, axis=-1)
        prev = cand[walks, order[:, 0]]
        cands.append(cand)
        dists.append(d)
        orders.append(order)
    # the nearest and next nearest branch of each node of each walk; a map
    # with one branch has none to confuse it with
    orders = np.stack(orders, axis=1)[..., :2]
    if orders.shape[-1] == 1:
        orders = np.concatenate([orders, orders], axis=-1)
    near = np.take_along_axis(np.stack(dists, axis=1), orders, axis=-1)
    picks = np.take_along_axis(np.stack(cands, axis=1), orders[..., None],
                               axis=-2)
    lift = picks[:, :, 0]
    # faults[b, i]: no local preimage, an ambiguous branch, a step too far
    faults = np.stack([
        np.isnan(near[..., 0]),
        (orders[..., 1] != orders[..., 0]) & (near[..., 1] < max_step)
        & (dist(lift, picks[:, :, 1]) < ambiguity_gap / 4.0),
        near[..., 0] > max_step], axis=-1)
    faults[:, 0, 2] = False  # node 0 may lie anywhere near the start
    hit = faults.any(axis=-1)
    reached = np.where(hit.any(axis=-1), hit.argmax(axis=-1), n)
    res = f.target.distance(f.apply_batch(lift), targets)
    bad = (res > tol) & (np.arange(n) < reached[:, None])
    first_bad = np.where(bad.any(axis=-1), bad.argmax(axis=-1), n)
    gap = (dist(lift[:, -1], lift[:, 0]) if eta.grid.closed
           else np.zeros(len(lift)))
    errors = []
    for b, (i, j, closure) in enumerate(zip(first_bad.tolist(),
                                            reached.tolist(), gap.tolist())):
        if i < n:
            errors.append(OutsideNeighborhood(
                i, f"residual {res[b, i]:.2e} at node {i}"))
        elif j < n:
            kind = int(faults[b, j].argmax())
            errors.append(
                OutsideNeighborhood(j, f"no local preimage at node {j}")
                if kind == 0 else BranchAmbiguity(j) if kind == 1
                else OutsideNeighborhood(j))
        elif closure > max_step:
            errors.append(OutsideNeighborhood(
                0, f"lift does not close up (gap {closure:.3f})"))
        else:
            errors.append(None)
    # the lifts of the walks without a fault, coherence-checked as one stack
    done = [b for b, err in enumerate(errors) if err is None]
    lifts = iter(GridMap(eta.grid, m, lift[done],
                         delta_coh=max_step * (1.0 + 1e-9)).unstack())
    outs = [next(lifts) if err is None else err for err in errors]
    if eta.ambient.ndim > 2:
        return outs
    if isinstance(outs[0], GeometryError):
        raise outs[0]
    return outs[0]


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def degree(loop: GridMap) -> int:
    """Winding number of a coherent loop into the circle."""
    if not loop.grid.closed:
        raise ValueError("degree needs a circle grid")
    a = loop.ambient
    th = np.arctan2(a[:, 1], a[:, 0])
    inc = np.diff(np.concatenate([th, th[:1]]))
    inc = np.mod(inc + math.pi, TWO_PI) - math.pi
    if float(np.max(np.abs(inc))) >= math.pi - 1e-9:
        raise CoherenceLost("angular step of half a turn or more")
    total = float(np.sum(inc)) / TWO_PI
    k = int(round(total))
    if abs(total - k) > 1e-6:
        raise CoherenceLost(f"winding sum {total} is not an integer")
    return k


# ---------------------------------------------------------------------------
# CSV export (the ``dump-gridmap`` command)
# ---------------------------------------------------------------------------

def gridmap_to_csv(gm: GridMap, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + [f"ambient_{i}" for i in range(gm.target.ambient_dim)])
        for i in range(gm.grid.n):
            w.writerow([i] + [f"{x:.17g}" for x in gm.ambient[i]])
