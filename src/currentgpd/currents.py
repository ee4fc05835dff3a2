"""Groupoids of grid maps with pointwise operations, and their certificates.

Applying a groupoid's structure maps node by node turns grid maps into a
groupoid again.  This module builds that object for any catalog groupoid,
checks the lifted axioms, verifies the structural isomorphisms for pair and
action groupoids, and constructs the executable counterexample certificates
(transitivity obstruction, equicontinuity failure, finite fiber bounds).
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Circle, exp_cover
from .errors import (BranchAmbiguity, NotComposable, OutsideNeighborhood,
                     Unsupported)
from .gridmaps import (GridMap, GridSpec, circle_winding_loop,
                       constant_grid_map, degree, local_diffeo_inverse,
                       seminorm_distance, stacked_grid_map)
from .groupoids import (AxiomReport, LieGroupoid, axiom_report,
                        circle_bundle_groupoid, etale_index, pair_groupoid,
                        rotation_action_groupoid, worst_rank_ratio)
from .manifolds import merge_components, split_components
from .report import Certificate, worst_residual
from .tolerances import DEFAULT

TWO_PI = 2.0 * math.pi

# Samples per draw of the lifted axiom check; memory is set by this chunk.
AXIOM_CHUNK = 250
# The (sample, node) points a lifted axiom record of the current-groupoid
# suite checks at most: on 256 nodes, exactly the first draw of its stream.
AXIOM_POINTS = 256 * AXIOM_CHUNK


class CurrentGroupoid:
    """Grid maps into a groupoid, composed node by node."""

    def __init__(self, base_gpd: LieGroupoid, grid: GridSpec):
        self.base_gpd = base_gpd
        self.grid = grid
        self.name = f"maps({grid.kind}{grid.n} -> {base_gpd.name})"

    # -- structure maps on grid maps -----------------------------------------
    def _wrap_obj(self, amb):
        return GridMap(self.grid, self.base_gpd.base, amb)

    def _wrap_arrow(self, amb):
        return GridMap(self.grid, self.base_gpd.arrows, amb)

    def alpha_star(self, a: GridMap) -> GridMap:
        return self._wrap_obj(self.base_gpd.alpha_batch(a.ambient))

    def beta_star(self, a: GridMap) -> GridMap:
        return self._wrap_obj(self.base_gpd.beta_batch(a.ambient))

    def mu_star(self, a: GridMap, b: GridMap,
                tol=DEFAULT.tol_chart) -> GridMap:
        """Nodewise composition; composability must hold at every node."""
        aa = self.base_gpd.alpha_batch(a.ambient)
        bb = self.base_gpd.beta_batch(b.ambient)
        gaps = np.asarray(self.base_gpd.base.distance(aa, bb))
        gap = float(np.max(gaps))
        if not gap < tol:  # a NaN gap is not composable either
            raise NotComposable(
                f"{self.name}: endpoint gap {gap:.3e} "
                f"at node {int(np.argmax(gaps)) % self.grid.n}")
        b_amb = self.base_gpd.project_to_beta(b.ambient, aa)
        return self._wrap_arrow(self.base_gpd.mu_batch(a.ambient, b_amb))

    def iota_star(self, a: GridMap) -> GridMap:
        return self._wrap_arrow(self.base_gpd.iota_batch(a.ambient))

    def unit_star(self, obj: GridMap) -> GridMap:
        return self._wrap_arrow(self.base_gpd.unit_batch(obj.ambient))

    # -- sampling ---------------------------------------------------------------
    def sample_arrow(self, rng) -> GridMap:
        amb = self.base_gpd.arrows.sample_path(self.grid.params(), rng,
                                               self.grid.closed)
        return self._wrap_arrow(amb)

    def sample_with_beta(self, obj: GridMap, rng) -> GridMap:
        amb = self.base_gpd.sample_arrow_path_with_beta(
            obj.ambient, self.grid.params(), rng, self.grid.closed)
        return self._wrap_arrow(amb)

    def sample_object(self, rng) -> GridMap:
        return self._wrap_obj(self.base_gpd.base.sample_path(
            self.grid.params(), rng, self.grid.closed))

    # -- lifted axiom suite -------------------------------------------------------
    def check_axioms(self, n_samples=1000, seed=0) -> AxiomReport:
        """Lifted axiom residuals over seeded composable grid-arrow samples.

        :func:`axiom_report` draws the samples in chunks of at most
        AXIOM_CHUNK, each in four batched calls: m arrow paths g, then one
        fiber path h over each source path alpha(g) and one k over each
        alpha(h), then m object paths for the unit laws.  Every draw is an
        (m, nodes, ambient) array that the samplers write in
        component-major memory; G's component functions then run over
        blocks of (sample, node) points (Theorem A, :func:`axiom_violations`).

        So a check of AXIOM_CHUNK samples gives, law by law, the residuals
        of the first chunk of any larger check on the same seed: none above
        that check's.  The current-groupoid suite asks for at most
        AXIOM_POINTS // nodes samples, which on 256 nodes is that chunk.
        """
        gpd = self.base_gpd
        params = self.grid.params()
        closed = self.grid.closed

        def draw(rng, m):
            g = gpd.arrows.sample_path(params, rng, closed, m)
            h = gpd.sample_arrow_path_with_beta(gpd.alpha_batch(g), params,
                                                rng, closed)
            k = gpd.sample_arrow_path_with_beta(gpd.alpha_batch(h), params,
                                                rng, closed)
            return g, h, k, gpd.base.sample_path(params, rng, closed, m)

        return axiom_report(gpd, self.name, n_samples, seed,
                            AXIOM_CHUNK, draw)


def build_current(gpd: LieGroupoid, grid: GridSpec) -> CurrentGroupoid:
    return CurrentGroupoid(gpd, grid)


# ---------------------------------------------------------------------------
# structural isomorphisms
# ---------------------------------------------------------------------------

def _composable_draws(cur: CurrentGroupoid, n_samples, rng, objects=False):
    """Seeded composable grid-arrow pairs (a, b), and object maps when
    asked, each stacked over the samples as one stacked GridMap.

    The samples are drawn one by one, in the order of the draws of
    ``sample_arrow``, ``sample_with_beta`` and ``sample_object``; the
    structure maps then run once over each stack, with each node's bits.
    """
    draws = []
    for _ in range(n_samples):
        a = cur.sample_arrow(rng)
        b = cur.sample_with_beta(cur.alpha_star(a), rng)
        obj = (cur.sample_object(rng),) if objects else ()
        draws.append([gm.ambient for gm in (a, b, *obj)])
    wraps = (cur._wrap_arrow, cur._wrap_arrow, cur._wrap_obj)
    return [wrap(np.stack(d)) for wrap, d in zip(wraps, zip(*draws))]


def pair_iso(grid: GridSpec, m, n_samples=100, seed=0,
             tol=DEFAULT.tol_chart) -> float:
    """Grid maps into M x M versus pairs of grid maps into M.

    The reindexing bijection must commute with all five structure maps;
    returns the max residual over seeded samples.
    """
    gpd = pair_groupoid(m)
    cur = build_current(gpd, grid)
    am = m.ambient_dim
    a, b, obj = _composable_draws(cur, n_samples,
                                  np.random.default_rng(seed), objects=True)
    first = lambda gm: gm.ambient[..., :am]
    second = lambda gm: gm.ambient[..., am:]
    return worst_residual(
        # source/target under reindexing
        cur.alpha_star(a).ambient - second(a),
        cur.beta_star(a).ambient - first(a),
        # multiplication: (f1, f2) . (f2, f3) = (f1, f3)
        cur.mu_star(a, b, tol=tol).ambient
        - np.concatenate([first(a), second(b)], axis=-1),
        # inversion and units
        cur.iota_star(a).ambient
        - np.concatenate([second(a), first(a)], axis=-1),
        cur.unit_star(obj).ambient
        - np.concatenate([obj.ambient, obj.ambient], axis=-1))


def action_iso(grid: GridSpec, action_gpd: LieGroupoid, n_samples=100,
               seed=0, tol=DEFAULT.tol_chart) -> float:
    """Grid maps into G x M versus the action of G-valued on M-valued maps."""
    if not hasattr(action_gpd, "act_batch"):
        raise Unsupported(f"{action_gpd.name} is not an action groupoid")
    cur = build_current(action_gpd, grid)
    group = action_gpd.group
    ag = group.ambient_dim
    a, b = _composable_draws(cur, n_samples, np.random.default_rng(seed))
    gm_part = lambda gm: gm.ambient[..., :ag]
    m_part = lambda gm: gm.ambient[..., ag:]
    # multiplication: group parts multiply pointwise, base from the right
    lifted_g = merge_components(group.mul(split_components(gm_part(a)),
                                          split_components(gm_part(b))))
    return worst_residual(
        # source / target match the pointwise action picture
        cur.alpha_star(a).ambient - m_part(a),
        cur.beta_star(a).ambient
        - action_gpd.act_batch(gm_part(a), m_part(a)),
        cur.mu_star(a, b, tol=tol).ambient
        - np.concatenate([lifted_g, m_part(b)], axis=-1))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def transitivity_obstruction(grid: GridSpec, target=None, n_branches=32,
                             seed=0) -> Certificate:
    """Solve, or obstruct, the anchor equation for the rotation action.

    For target loops (eta1, eta2) into the circle, an arrow (t, eta1) with
    pointwise rotation target eta2 requires a continuous angle t with
    e^{it} eta1 = eta2.  Solvability is exactly the vanishing of the winding
    number of eta2 / eta1; the winding mismatch is the certificate.
    """
    circle = Circle()
    if target is None:
        eta1 = circle_winding_loop(grid, circle, 1)
        eta2 = constant_grid_map(grid, circle.point_from_ambient([1.0, 0.0]))
    else:
        eta1, eta2 = target
    # w = eta2 * conj(eta1), nodewise on the unit circle
    a1, a2 = eta1.ambient, eta2.ambient
    w = np.stack([a1[:, 0] * a2[:, 0] + a1[:, 1] * a2[:, 1],
                  a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]], axis=-1)
    w_loop = GridMap(grid, circle, w, delta_coh=math.pi - 1e-9)
    required = degree(w_loop)
    inputs = {"grid": {"kind": grid.kind, "n": grid.n},
              "winding_eta1": degree(GridMap(grid, circle, a1,
                                             delta_coh=math.pi - 1e-9)),
              "winding_eta2": degree(GridMap(grid, circle, a2,
                                             delta_coh=math.pi - 1e-9))}
    if required == 0:
        # branch-following angle lift of w
        th = np.arctan2(w[:, 1], w[:, 0])
        inc = np.diff(th)
        inc = np.mod(inc + math.pi, TWO_PI) - math.pi
        t = np.concatenate([[th[0]], th[0] + np.cumsum(inc)])
        arrow = np.concatenate([t[:, None], a1], axis=-1)
        gpd = rotation_action_groupoid()
        return Certificate(
            kind="anchor-solve",
            inputs=inputs,
            witness_data={"angle_path": t},
            verdict="solvable",
            max_residual=worst_residual(
                gpd.base.distance(gpd.alpha_batch(arrow), a1),
                gpd.base.distance(gpd.beta_batch(arrow), a2)),
        )
    # obstructed: no continuous angle exists; confirm by exhaustive lifting
    cover = exp_cover(circle)
    line = cover.source
    gamma0 = GridMap(grid, line, np.zeros((grid.n, 1)))
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(n_branches):
        k = int(rng.integers(-8, 9))
        starts.append([TWO_PI * k + rng.uniform(-0.1, 0.1)])
    # every start's walk in one stacked call
    failures = sum(isinstance(o, (OutsideNeighborhood, BranchAmbiguity))
                   for o in local_diffeo_inverse(
                       cover, gamma0, stacked_grid_map(w_loop, n_branches),
                       start=line.point_from_ambient(starts, chart_id=0)))
    return Certificate(
        kind="anchor-obstruction",
        inputs=inputs,
        witness_data={"required_winding": required, "achievable_winding": 0,
                      "lift_attempts": n_branches,
                      "lift_failures": failures},
        verdict="obstructed" if failures == n_branches else "inconclusive",
        max_residual=0.0,
    )


def properness_failure_witness(grid: GridSpec, k_max=8,
                               windings=(1, 2, 4, 8)) -> Certificate:
    """Equicontinuity failure in one anchor fiber of the circle bundle.

    The winding-k loops in the fiber over a constant object have first-order
    seminorms growing linearly in k and stay order-0 separated, so no
    subsequence converges in the grid C^1 distance.
    """
    gpd = circle_bundle_groupoid()
    circle = gpd.base
    eta = constant_grid_map(grid, circle.point_from_ambient([1.0, 0.0]))
    unit_arrow = GridMap(grid, gpd.arrows, np.concatenate(
        [eta.ambient, eta.ambient], axis=-1))
    windings = [k for k in windings if k <= k_max]
    family = {}
    anchor_residual = 0.0
    for k in windings:
        wk = circle_winding_loop(grid, circle, k)
        arrow = GridMap(grid, gpd.arrows,
                        np.concatenate([eta.ambient, wk.ambient], axis=-1),
                        delta_coh=wk.delta_coh)
        res = worst_residual(
            circle.distance(gpd.alpha_batch(arrow.ambient), eta.ambient),
            circle.distance(gpd.beta_batch(arrow.ambient), eta.ambient))
        anchor_residual = worst_residual(anchor_residual, res)
        prof = seminorm_distance(arrow, unit_arrow)
        family[k] = {"order1_seminorm": prof[1] if grid.ell >= 1 else None,
                     "anchor_residual": res}
    # order-0 separation: the closest pair's largest nodewise distance
    loops = [circle_winding_loop(grid, circle, k).ambient for k in windings]
    pair_min = float(np.min(
        [np.max(circle.distance(a, b))
         for i, a in enumerate(loops) for b in loops[i + 1:]],
        initial=np.inf))
    growth_ok = all(
        abs(family[k]["order1_seminorm"] - k) <= 0.05 * k for k in windings
    ) if grid.ell >= 1 else False
    verdict = ("unbounded-derivatives"
               if growth_ok and pair_min >= 1.0 and anchor_residual < 1e-12
               else "inconclusive")
    return Certificate(
        kind="properness-failure",
        inputs={"grid": {"kind": grid.kind, "n": grid.n}, "k_max": k_max},
        witness_data={"family": family, "pairwise_order0_min": pair_min},
        verdict=verdict,
        max_residual=anchor_residual,
    )


def proper_etale_fiber_bound(gpd: LieGroupoid, grid: GridSpec, n_pairs=200,
                             seed=0, tol=DEFAULT.tol_chart) -> Certificate:
    """Finite lift counts over object pairs for a finite action groupoid.

    A grid arrow over a connected grid is a constant group element together
    with its source map, so at most |Gamma| arrows lie over any object pair;
    they are enumerated and matched against the target at orbit level, and
    exactly against the target for the anchor fiber itself.

    The pairs are drawn one by one, in the order of their draws; every
    translate, gap and match is then taken once over the stack of them,
    with the bits each node gets alone.
    """
    grp = gpd.finite_group
    if grp is None:
        raise Unsupported(f"{gpd.name}: needs a finite structure group")
    rng = np.random.default_rng(seed)
    m = gpd.base
    srcs, rhos, others = [], [], {}
    for trial in range(n_pairs):
        srcs.append(m.sample_path(grid.params(), rng, grid.closed))
        rhos.append(int(rng.integers(len(grp))))
        if trial % 5 == 4:  # a target in another orbit
            others[trial] = m.sample_path(grid.params(), rng, grid.closed)
    # imgs[gi, trial] is element gi applied to the trial's source path
    imgs = np.stack([el.act(np.stack(srcs)) for el in grp.elements])
    tgt = imgs[rhos, np.arange(n_pairs)]
    for trial, path in others.items():
        tgt[trial] = path
    orbit_gap = np.min(np.stack([np.max(np.abs(e.act(imgs) - tgt), axis=-1)
                                 for e in grp.elements]), axis=0)
    lifts = np.max(orbit_gap, axis=-1) < tol
    worst_res = worst_residual(orbit_gap[lifts])
    counts = np.sum(lifts, axis=0)
    exact_counts = np.sum(np.max(np.abs(imgs - tgt), axis=(-2, -1)) < tol,
                          axis=0)
    verdict = "bounded" if int(counts.max(initial=0)) <= len(grp) else "violated"
    return Certificate(
        kind="finite-fiber-bound",
        inputs={"groupoid": gpd.name, "grid": {"kind": grid.kind, "n": grid.n},
                "group_order": len(grp), "n_pairs": n_pairs},
        witness_data={
            "max_lifts": int(counts.max(initial=0)),
            "min_lifts": int(counts.min(initial=0)),
            "n_empty": int(np.sum(counts == 0)),
            "n_full": int(np.sum(counts == len(grp))),
            "max_exact_matches": int(exact_counts.max(initial=0)),
        },
        verdict=verdict,
        max_residual=worst_res,
    )


def _arrow_paths(gpd: LieGroupoid, grid: GridSpec, n_arrows, seed):
    """Seeded arrow paths, drawn as one (n_arrows, nodes, amb) batch."""
    rng = np.random.default_rng(seed)
    return gpd.arrows.sample_path(grid.params(), rng, grid.closed, n_arrows)


def current_etale_nodes(gpd: LieGroupoid, grid: GridSpec, n_arrows=200,
                        seed=0, tol_rank=DEFAULT.tol_rank):
    """Per-node invertibility of the source Jacobian along sampled arrows."""
    worst, _ = worst_rank_ratio(gpd.alpha,
                                _arrow_paths(gpd, grid, n_arrows, seed),
                                etale_index(gpd))
    return worst > tol_rank, worst


def current_anchor_rank_nodes(gpd: LieGroupoid, grid: GridSpec, n_arrows=50,
                              seed=0, tol_rank=DEFAULT.tol_rank):
    """Per-node full row rank of the anchor Jacobian along sampled arrows."""
    worst, _ = worst_rank_ratio(gpd.anchor_map(),
                                _arrow_paths(gpd, grid, n_arrows, seed),
                                2 * gpd.base.dim - 1)
    return worst > tol_rank, worst
