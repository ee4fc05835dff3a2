"""Lie groupoids over charted manifolds: catalog, axiom checks, classifiers.

A groupoid is stored as data: arrow and base manifolds, source/target maps,
multiplication on the composability set, inversion, and the unit embedding.
All structure maps run on single points, dual seeds, and stacked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import ad
from .ad import value
from .errors import SamplingFailure, Unsupported
from .manifolds import (ChartedManifold, DiscreteManifold, Point,
                        ProductManifold, SmoothMap, component_major,
                        concat_components, map_jacobian, merge_components,
                        split_components, squared_distance)
from .catalog import Circle, Euclidean, RotationGroup, Torus
from .report import worst_residual
from .tolerances import DEFAULT


@dataclass
class Fiber:
    """The beta-fibers of a groupoid, described once for points and paths.

    ``build(x, f)`` is the arrow with target ``x`` and free coordinates
    ``f``; on stacked targets and coordinates it gives stacked arrows.  The
    free coordinates range over ``manifold`` (None when every fiber is a
    single arrow) and sit at ``h[..., cols]`` in an arrow's ambient ``h``.
    """
    manifold: ChartedManifold | None
    cols: slice
    build: Callable

    def points(self, x, rng):
        """Random arrows with targets x: ((n, ambM), rng) -> (n, ambG)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        free = (None if self.manifold is None
                else np.atleast_2d(self.manifold.sample(rng, x.shape[0])))
        return self.build(x, free)

    def path(self, tgt, params, rng, closed):
        """Random grid paths of arrows over the target paths tgt.

        A (nodes, ambM) target gives one path; (m, nodes, ambM) targets
        give m paths, whose free coordinates are drawn in one batch.
        """
        tgt = np.asarray(tgt, dtype=float)
        n = None if tgt.ndim == 2 else tgt.shape[0]
        free = (None if self.manifold is None
                else self.manifold.sample_path(params, rng, closed, n))
        return self.build(tgt, free)


class LieGroupoid:
    """Structure maps plus the fiber description that samples arrows.

    Arrows are drawn by ``arrows.sample`` / ``arrows.sample_path``.  Arrows
    with a prescribed target come from ``fiber``.  A groupoid without a
    fiber (``fiber=None``) raises SamplingFailure when asked for one.
    """

    def __init__(self, name, arrows, base, alpha, beta, mu_fn, iota, unit,
                 fiber=None):
        self.name = name
        self.arrows = arrows
        self.base = base
        self.alpha = alpha            # SmoothMap G -> M
        self.beta = beta              # SmoothMap G -> M
        self.mu_fn = mu_fn            # (g comps, h comps) -> arrow comps
        self.iota = iota              # SmoothMap G -> G
        self.unit = unit              # SmoothMap M -> G
        self.fiber = fiber            # Fiber of beta, or None
        self.finite_group = None      # FiniteGroup for etale action groupoids
        # an instance attribute, not a method: perfbench/tracer.py times it
        # (its groupoids.sample_arrow_path span) only by wrapping what
        # LieGroupoid.__setattr__ stores under this name
        self.sample_arrow_path_with_beta = (
            lambda tgt, params, rng, closed:
            self._fiber().path(tgt, params, rng, closed))

    def _fiber(self) -> Fiber:
        if self.fiber is None:
            raise SamplingFailure(f"{self.name}: no fiber description")
        return self.fiber

    def sample_with_beta(self, x, rng):
        return self._fiber().points(x, rng)

    def project_to_beta(self, h, x):
        """The arrows with targets x and the free coordinates of h."""
        fib = self._fiber()
        return fib.build(np.asarray(x, dtype=float),
                         np.asarray(h, dtype=float)[..., fib.cols])

    # -- batched structure maps ----------------------------------------------
    def alpha_batch(self, g):
        return self.alpha.apply_batch(g)

    def beta_batch(self, g):
        return self.beta.apply_batch(g)

    def mu_batch(self, g, h):
        out = self.mu_fn(split_components(np.asarray(g, dtype=float)),
                         split_components(np.asarray(h, dtype=float)))
        return merge_components(out)

    def iota_batch(self, g):
        return self.iota.apply_batch(g)

    def unit_batch(self, x):
        return self.unit.apply_batch(x)

    def anchor_map(self) -> SmoothMap:
        mm = ProductManifold([self.base, self.base],
                             name=f"{self.base.name}^2")

        def fn(comps):
            return list(self.alpha.fn(comps)) + list(self.beta.fn(comps))

        return SmoothMap(self.arrows, mm, fn, name=f"anchor_{self.name}")

    def __repr__(self):
        return f"<LieGroupoid {self.name}: {self.arrows.name} over {self.base.name}>"


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

@dataclass
class AxiomReport:
    name: str
    n_samples: int
    seed: int
    violations: dict = field(default_factory=dict)

    @property
    def max_violation(self):
        return worst_residual(*self.violations.values())

    def passed(self, tol):
        return self.max_violation <= tol


# points per block of axiom_violations and per draw of the flat check_axioms:
# one component takes 128 KiB, so memory does not grow with the sample count
LAW_BLOCK = 16384


def axiom_violations(gpd, g, h, k, xs):
    """Max groupoid-law residuals over stacked composable triples (g, h, k).

    Requires alpha(g)=beta(h) and alpha(h)=beta(k) to hold exactly on input;
    g, h, k and xs stack the same number of points on their leading axes.
    Each law holds point by point (Theorem A), so its largest residual is
    the worst over blocks of LAW_BLOCK points, with the same bits as over
    all points at once.  The blocks are row ranges of each array viewed as
    (points, components) in component-major memory (:func:`component_major`,
    which copies nothing when the draw is component-major already).
    Residuals are the bits of the largest distance, or NaN, in any memory
    order.
    """
    rows = [component_major(a).reshape(-1, np.shape(a)[-1])
            for a in (g, h, k, xs)]
    worst = {}
    for lo in range(0, len(rows[0]), LAW_BLOCK):
        viol = _block_violations(gpd, *(r[lo:lo + LAW_BLOCK] for r in rows))
        for law, val in viol.items():
            worst[law] = worst_residual(worst.get(law, 0.0), val)
    return worst


def _block_violations(gpd, g, h, k, xs):
    """The law residuals of :func:`axiom_violations` over one block.

    Component functions run on component lists (:func:`split_components`),
    nothing is stacked, and mu(g, h) is dropped after its laws.  Residuals
    are roots of the largest :func:`squared_distance`.
    """
    g, h, k, xs = (split_components(a) for a in (g, h, k, xs))
    mu, al, be, iota, unit = (gpd.mu_fn, gpd.alpha.fn, gpd.beta.fn,
                              gpd.iota.fn, gpd.unit.fn)
    worst = lambda a, b: float(np.sqrt(np.max(squared_distance(a, b))))
    gh = mu(g, h)
    viol = {"associativity": worst(mu(gh, k), mu(g, mu(h, k))),
            "alpha_of_mu": worst(al(gh), al(h)),
            "beta_of_mu": worst(be(gh), be(g))}
    del gh
    ug_left, ug_right, ig = unit(be(g)), unit(al(g)), iota(g)
    viol.update(left_unit=worst(mu(ug_left, g), g),
                right_unit=worst(mu(g, ug_right), g),
                left_inverse=worst(mu(ig, g), ug_right),
                right_inverse=worst(mu(g, ig), ug_left))
    u = unit(xs)
    viol.update(alpha_of_unit=worst(al(u), xs), beta_of_unit=worst(be(u), xs))
    return viol


def sample_composable_triple(gpd, rng, n):
    g = gpd.arrows.sample(rng, n)
    h = gpd.sample_with_beta(gpd.alpha_batch(g), rng)
    k = gpd.sample_with_beta(gpd.alpha_batch(h), rng)
    return g, h, k


def axiom_report(gpd, name, n_samples, seed, chunk, draw) -> AxiomReport:
    """Worst law residuals over n_samples draws from one seeded generator:
    ``draw(rng, m) -> (g, h, k, xs)`` in chunks of m <= chunk samples, each
    dropped after :func:`axiom_violations`, so memory is set by chunk."""
    if n_samples < 1:
        raise ValueError(f"axiom check needs n_samples >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    worst = {}
    for done in range(0, n_samples, chunk):
        viol = axiom_violations(gpd, *draw(rng, min(chunk, n_samples - done)))
        worst = {law: worst_residual(worst.get(law, 0.0), val)
                 for law, val in viol.items()}
    return AxiomReport(name, n_samples, seed, worst)


def check_axioms(gpd: LieGroupoid, n_samples=1000, seed=0) -> AxiomReport:
    """Law residuals of seeded composable triples and base points, drawn by
    :func:`axiom_report` LAW_BLOCK at a time (in one draw up to LAW_BLOCK)."""
    def draw(rng, m):
        return sample_composable_triple(gpd, rng, m) + (gpd.base.sample(rng, m),)

    return axiom_report(gpd, gpd.name, n_samples, seed, LAW_BLOCK, draw)


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

@dataclass
class ClassifyReport:
    verdict: bool
    note: str
    n_samples: int
    seed: int
    extreme: float
    witness: list | None = None


def worst_rank_ratio(fmap: SmoothMap, ambients, index):
    """Smallest s[index] / max(s[0], 1) over the Jacobians of fmap, s sorted.

    `ambients` stacks source points along its leading axes, all handled by
    one :func:`map_jacobian` call and one SVD.  Returns (worst, witness),
    the witness being the first worst point in row-major order.  Two cases
    need no Jacobian: a negative index asks for no singular value, so
    (inf, None); when a dimension of fmap does not exceed `index`, that
    singular value vanishes everywhere, so (0.0, None).
    """
    if index < 0:
        return np.inf, None
    if index >= min(fmap.source.dim, fmap.target.dim):
        return 0.0, None
    amb = np.reshape(ambients, (-1, fmap.source.ambient_dim))
    s = np.linalg.svd(map_jacobian(fmap, amb), compute_uv=False)
    crit = s[:, index] / np.maximum(s[:, 0], 1.0)
    k = int(np.argmin(crit))
    return float(crit[k]), list(map(float, amb[k]))


def etale_index(gpd: LieGroupoid):
    """Index of the singular value that is nonzero iff the source is etale."""
    return max(gpd.arrows.dim, gpd.base.dim) - 1


def classify_etale(gpd: LieGroupoid, n_samples=100, seed=0,
                   tol_rank=DEFAULT.tol_rank) -> ClassifyReport:
    """Source map is a local diffeomorphism: equal dims + invertible Jacobians."""
    rng = np.random.default_rng(seed)
    arrows = gpd.arrows.sample(rng, n_samples)
    worst, witness = worst_rank_ratio(gpd.alpha, arrows, etale_index(gpd))
    ok = worst > tol_rank
    note = ("invertible on samples" if ok else "dim G != dim M"
            if witness is None else "singular source Jacobian")
    return ClassifyReport(ok, note, n_samples, seed, worst,
                          None if ok else witness)


def classify_locally_transitive(gpd: LieGroupoid, n_samples=100, seed=0,
                                tol_rank=DEFAULT.tol_rank) -> ClassifyReport:
    """Anchor (alpha, beta) has full row rank at the sampled arrows.

    Full surjectivity of the anchor cannot be certified by sampling; the
    verdict means "submersion at all sampled arrows".
    """
    rng = np.random.default_rng(seed)
    arrows = gpd.arrows.sample(rng, n_samples)
    worst, witness = worst_rank_ratio(gpd.anchor_map(), arrows,
                                      2 * gpd.base.dim - 1)
    ok = worst > tol_rank
    note = ("submersion on samples" if ok else "anchor rank bounded by dim G"
            if witness is None else "anchor rank deficient")
    return ClassifyReport(ok, note, n_samples, seed, worst,
                          None if ok else witness)


# ---------------------------------------------------------------------------
# finite groups of diffeomorphisms
# ---------------------------------------------------------------------------

class AffineElement:
    """Affine map x -> A x + b on the ambient space of a Euclidean manifold."""

    def __init__(self, matrix, offset=None, label=""):
        self.matrix = np.asarray(matrix, dtype=float)
        self.offset = (np.zeros(self.matrix.shape[0]) if offset is None
                       else np.asarray(offset, dtype=float))
        self.label = label

    def act_comps(self, comps):
        A, b = self.matrix, self.offset
        out = []
        for i in range(A.shape[0]):
            acc = 0.0 + b[i]
            for j in range(A.shape[1]):
                if A[i, j] != 0.0:
                    acc = acc + A[i, j] * comps[j]
            out.append(acc)
        return out

    def act(self, amb):
        return np.asarray(amb, dtype=float) @ self.matrix.T + self.offset

    def compose(self, other):
        return AffineElement(self.matrix @ other.matrix,
                             self.matrix @ other.offset + self.offset,
                             f"{self.label}{other.label}")

    def same_as(self, other):
        return (np.abs(self.matrix - other.matrix).max() < 1e-9
                and np.abs(self.offset - other.offset).max() < 1e-9)


class FiniteGroup(DiscreteManifold):
    """Finite group of affine diffeomorphisms: a 0-dimensional Lie group.

    The manifold is the set of element indices; ``mul`` and ``invert`` look
    indices up in a precomputed table, so they are constant under
    differentiation and run on single indices and stacked arrays alike.
    """

    def __init__(self, elements):
        self.elements = list(elements)
        k = len(self.elements)
        self.table = np.zeros((k, k), dtype=int)
        self.inverse = np.zeros(k, dtype=int)
        ident = AffineElement(np.eye(self.elements[0].matrix.shape[0]))
        self.identity_index = next(
            i for i, e in enumerate(self.elements) if e.same_as(ident))
        for i, a in enumerate(self.elements):
            for j, b in enumerate(self.elements):
                c = a.compose(b)
                matches = [t for t, e in enumerate(self.elements) if e.same_as(c)]
                if len(matches) != 1:
                    raise Unsupported("element set is not closed under composition")
                self.table[i, j] = matches[0]
                if matches[0] == self.identity_index:
                    self.inverse[i] = j
        self.identity = (float(self.identity_index),)
        super().__init__(k)

    def mul(self, a, b):
        i, j = np.broadcast_arrays(np.rint(value(a[0])), np.rint(value(b[0])))
        return [self.table[i.astype(int), j.astype(int)].astype(float)]

    def invert(self, a):
        return [self.inverse[np.rint(value(a[0])).astype(int)].astype(float)]

    def __len__(self):
        return len(self.elements)


def cyclic_rotation_group(order) -> FiniteGroup:
    els = []
    for k in range(order):
        a = 2.0 * math.pi * k / order
        els.append(AffineElement([[math.cos(a), -math.sin(a)],
                                  [math.sin(a), math.cos(a)]], label=f"r{k}"))
    return FiniteGroup(els)


def reflection_group_1d() -> FiniteGroup:
    return FiniteGroup([AffineElement([[1.0]], label="e"),
                        AffineElement([[-1.0]], label="s")])


@dataclass
class IsotropyGroup:
    element_indices: list
    table: np.ndarray

    def __len__(self):
        return len(self.element_indices)


def isotropy_group(gpd: LieGroupoid, x: Point,
                   tol=DEFAULT.tol_chart) -> IsotropyGroup:
    """Elements fixing x, with the induced multiplication table."""
    grp = gpd.finite_group
    if grp is None:
        raise Unsupported(f"{gpd.name}: isotropy enumeration needs a finite group")
    idx = [i for i, e in enumerate(grp.elements)
           if float(np.max(np.abs(e.act(x.ambient) - x.ambient))) < tol]
    pos = {g: n for n, g in enumerate(idx)}
    table = np.asarray([[pos[int(grp.table[i, j])] for j in idx] for i in idx])
    return IsotropyGroup(idx, table)


# ---------------------------------------------------------------------------
# catalog groupoids
# ---------------------------------------------------------------------------

def unit_groupoid(m: ChartedManifold) -> LieGroupoid:
    ident = lambda comps: list(comps)
    return LieGroupoid(f"unit({m.name})", m, m,
                       SmoothMap(m, m, ident, name="alpha"),
                       SmoothMap(m, m, ident, name="beta"),
                       lambda g, h: list(g),
                       SmoothMap(m, m, ident, name="iota"),
                       SmoothMap(m, m, ident, name="unit"),
                       Fiber(None, slice(0, 0), lambda x, f: np.copy(x)))


def _target_then_free(x, f):
    """Arrows whose ambient is (target, free coordinates)."""
    return concat_components([x, f])


def pair_groupoid(m: ChartedManifold) -> LieGroupoid:
    G = ProductManifold([m, m], name=f"{m.name}^2")
    am = m.ambient_dim

    def alpha_fn(comps):
        return list(comps[am:])

    def beta_fn(comps):
        return list(comps[:am])

    def mu_fn(g, h):
        return list(g[:am]) + list(h[am:])

    def iota_fn(comps):
        return list(comps[am:]) + list(comps[:am])

    def unit_fn(comps):
        return list(comps) + list(comps)

    return LieGroupoid(f"pair({m.name})", G, m,
                       SmoothMap(G, m, alpha_fn, name="alpha"),
                       SmoothMap(G, m, beta_fn, name="beta"),
                       mu_fn,
                       SmoothMap(G, G, iota_fn, name="iota"),
                       SmoothMap(m, G, unit_fn, name="unit"),
                       Fiber(m, slice(am, 2 * am), _target_then_free))


def lie_action_groupoid(group: ChartedManifold, act_fn, m: ChartedManifold,
                        name) -> LieGroupoid:
    """Action groupoid G x| M of a Lie group action: arrows (g, x), target g.x.

    ``group`` is a catalog group manifold, which carries ``mul``, ``invert``
    and ``identity``; a :class:`FiniteGroup` is the 0-dimensional case.
    ``act_fn`` maps (g comps, x comps) to the comps of g.x.
    """
    G = ProductManifold([group, m], name=f"{group.name}x{m.name}")
    ag = group.ambient_dim

    def alpha_fn(comps):
        return list(comps[ag:])

    def beta_fn(comps):
        return act_fn(list(comps[:ag]), list(comps[ag:]))

    def mu_fn(g, h):
        return group.mul(list(g[:ag]), list(h[:ag])) + list(h[ag:])

    def iota_fn(comps):
        g = list(comps[:ag])
        return group.invert(g) + act_fn(g, list(comps[ag:]))

    def unit_fn(comps):
        probe = comps[0] * 0.0
        return [probe + e for e in group.identity] + list(comps)

    def act_batch(g, x):
        return merge_components(act_fn(split_components(np.asarray(g, dtype=float)),
                                       split_components(np.asarray(x, dtype=float))))

    def build(x, g):
        comps = split_components(g)
        return merge_components(
            comps + act_fn(group.invert(comps), split_components(x)))

    gpd = LieGroupoid(name, G, m,
                      SmoothMap(G, m, alpha_fn, name="alpha"),
                      SmoothMap(G, m, beta_fn, name="beta"),
                      mu_fn,
                      SmoothMap(G, G, iota_fn, name="iota"),
                      SmoothMap(m, G, unit_fn, name="unit"),
                      Fiber(group, slice(0, ag), build))
    gpd.act_batch = act_batch
    gpd.group = group
    return gpd


def rotation_action_groupoid() -> LieGroupoid:
    """The real line acting on the circle by rotations."""
    line = Euclidean(1, box=3.0)
    circle = Circle()

    def act_fn(g, x):
        c, s = ad.cos(g[0]), ad.sin(g[0])
        return [c * x[0] - s * x[1], s * x[0] + c * x[1]]

    return lie_action_groupoid(line, act_fn, circle, "rot-action(RxS1)")


def circle_bundle_groupoid() -> LieGroupoid:
    """The group bundle S1 x S1 over S1 (totally intransitive)."""
    circle = Circle()
    G = Torus()

    def alpha_fn(comps):
        return list(comps[:2])

    def mu_fn(g, h):
        z = list(g[:2])
        w = Circle.mul(list(g[2:]), list(h[2:]))
        return z + w

    def iota_fn(comps):
        return list(comps[:2]) + Circle.invert(list(comps[2:]))

    def unit_fn(comps):
        probe = comps[0] * 0.0
        return list(comps) + [probe + 1.0, probe]

    return LieGroupoid("circle-bundle(S1xS1)", G, circle,
                       SmoothMap(G, circle, alpha_fn, name="alpha"),
                       SmoothMap(G, circle, alpha_fn, name="beta"),
                       mu_fn,
                       SmoothMap(G, G, iota_fn, name="iota"),
                       SmoothMap(circle, G, unit_fn, name="unit"),
                       Fiber(circle, slice(2, 4), _target_then_free))


def _indexed_action(elements, idx, mcomps):
    """Apply the idx-th affine element; idx is constant under differentiation.

    idx is one index or an array of them, each picking its element by a 0/1
    weight, so every point is moved by the weighted sum of ``act_comps``.
    """
    iv = np.asarray(value(idx))
    out = None
    for k, el in enumerate(elements):
        w = (np.abs(iv - k) < 0.5).astype(float)
        term = [w * c for c in el.act_comps(mcomps)]
        out = term if out is None else [a + b for a, b in zip(out, term)]
    return out


def finite_action_groupoid(group: FiniteGroup, m: ChartedManifold,
                           name) -> LieGroupoid:
    """Action groupoid of a finite group of affine diffeomorphisms."""
    gpd = lie_action_groupoid(
        group, lambda g, x: _indexed_action(group.elements, g[0], list(x)),
        m, name)
    gpd.finite_group = group
    return gpd


def group_groupoid(group: ChartedManifold, name=None) -> LieGroupoid:
    """A catalog Lie group manifold as a groupoid over the one-point base."""
    star = DiscreteManifold(1, name="point")

    def const_fn(comps):
        return [comps[0] * 0.0]

    def unit_fn(comps):
        probe = comps[0] * 0.0
        return [probe + e for e in group.identity]

    return LieGroupoid(name or f"group({group.name})", group, star,
                       SmoothMap(group, star, const_fn, name="alpha"),
                       SmoothMap(group, star, const_fn, name="beta"),
                       lambda g, h: group.mul(list(g), list(h)),
                       SmoothMap(group, group, lambda c: group.invert(list(c)),
                                 name="iota"),
                       SmoothMap(star, group, unit_fn, name="unit"),
                       Fiber(group, slice(0, group.ambient_dim), lambda x, f: f))


# ---------------------------------------------------------------------------
# the instance catalog
# ---------------------------------------------------------------------------

def z4_plane_groupoid():
    return finite_action_groupoid(cyclic_rotation_group(4), Euclidean(2),
                                  "z4-plane")


def z2_line_groupoid():
    return finite_action_groupoid(reflection_group_1d(), Euclidean(1),
                                  "z2-line")


def so3_loop_groupoid():
    return group_groupoid(RotationGroup(), name="so3-group")


def so3_action_groupoid():
    """Rotations acting on 3-space by matrix multiplication."""

    def act_fn(g, x):
        return [g[0] * x[0] + g[1] * x[1] + g[2] * x[2],
                g[3] * x[0] + g[4] * x[1] + g[5] * x[2],
                g[6] * x[0] + g[7] * x[1] + g[8] * x[2]]

    return lie_action_groupoid(RotationGroup(), act_fn, Euclidean(3),
                               "so3-action")


GROUPOIDS = {
    "unit-circle": lambda: unit_groupoid(Circle()),
    "pair-real1": lambda: pair_groupoid(Euclidean(1)),
    "pair-real2": lambda: pair_groupoid(Euclidean(2)),
    "rot-action": rotation_action_groupoid,
    "so3-action": so3_action_groupoid,
    "circle-bundle": circle_bundle_groupoid,
    "z4-plane": z4_plane_groupoid,
    "z2-line": z2_line_groupoid,
    "so3-group": so3_loop_groupoid,
}


def make_groupoid(name) -> LieGroupoid:
    if name not in GROUPOIDS:
        raise KeyError(f"unknown groupoid id {name!r}")
    return GROUPOIDS[name]()
