"""Finite quotient orbifolds: local action form, path lifting, atlas obstruction.

Proper etale groupoids are locally action groupoids; for finite affine
groups this reconstruction is explicit and checkable.  Orbit-space paths
into a developable quotient lift node by node, uniquely once a starting
lift is chosen away from fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchAmbiguity, CoherenceLost, DegenerateNeighborhood,
                     StartNotInOrbit, Unsupported)
from .gridmaps import GridMap, GridSpec
from .groupoids import FiniteGroup, IsotropyGroup, LieGroupoid, isotropy_group
from .manifolds import Point
from .report import Certificate, worst_residual
from .tolerances import DEFAULT

TWO_PI = 2.0 * math.pi


def orbit_distance(group: FiniteGroup, a, b):
    """min over group translates of the ambient distance between a and b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    stack = np.stack([np.linalg.norm(e.act(a) - b, axis=-1)
                      for e in group.elements])
    return np.min(stack, axis=0)


@dataclass
class OrbitSpacePath:
    """A path in the quotient, stored through arbitrary orbit representatives."""

    grid: GridSpec
    representatives: np.ndarray    # (n, ambient)

    def __post_init__(self):
        self.representatives = np.asarray(self.representatives, dtype=float)


@dataclass
class LocalActionForm:
    isotropy: IsotropyGroup
    radius: float
    halvings: int
    action_law_residual: float
    phi_bijectivity_residual: float
    phi_multiplicativity_residual: float


def local_action_form(gpd: LieGroupoid, x: Point, n_check=500, seed=0,
                      tol=DEFAULT.tol_chart) -> LocalActionForm:
    """Reconstruct the action-groupoid form of a finite quotient near x.

    The neighborhood radius is found by bisection: start at the distance to
    the nearest non-isotropy orbit point and halve until no outside group
    element maps any verification sample back into the ball.
    """
    grp = gpd.finite_group
    if grp is None:
        raise Unsupported(f"{gpd.name}: needs a finite structure group")
    iso = isotropy_group(gpd, x, tol)
    outside = [i for i in range(len(grp)) if i not in iso.element_indices]
    c = x.ambient
    if outside:
        r = 0.5 * min(float(np.linalg.norm(grp.elements[i].act(c) - c))
                      for i in outside)
    else:
        r = 1.0
    rng = np.random.default_rng(seed)
    d = gpd.base.ambient_dim

    def ball_samples(radius):
        u = rng.normal(size=(n_check, d))
        u /= np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), 1e-12)
        rad = radius * rng.uniform(0, 1, size=(n_check, 1)) ** (1.0 / max(d, 1))
        return c + u * rad

    halvings = 0
    while True:
        ys = ball_samples(r)
        ok = True
        for i in outside:
            img = grp.elements[i].act(ys)
            if np.any(np.linalg.norm(img - c, axis=-1) < r):
                ok = False
                break
        for i in iso.element_indices:
            img = grp.elements[i].act(ys)
            if np.any(np.linalg.norm(img - c, axis=-1) >= r * (1 + 1e-12)):
                ok = False
                break
        if ok:
            break
        r *= 0.5
        halvings += 1
        if halvings > 40:
            raise DegenerateNeighborhood(
                f"{gpd.name}: no valid neighborhood after 40 halvings")

    ys = ball_samples(r)
    # (i) the reconstructed maps compose like the group
    act = lambda i, y: grp.elements[i].act(y)
    iso_idx = iso.element_indices
    act_res = worst_residual(
        act(grp.identity_index, ys) - ys,
        *(act(ga, act(gb, ys)) - act(int(grp.table[ga, gb]), ys)
          for ga in iso_idx for gb in iso_idx))
    # (ii) arrows over the neighborhood decompose along isotropy elements
    bij_res = 0.0
    for i in outside:
        dist = np.linalg.norm(act(i, ys) - c, axis=-1)
        bij_res = worst_residual(
            bij_res, r - np.min(dist, initial=r, where=dist < r))
    # (iii) the identification intertwines the multiplications: the groupoid
    # composes the arrows (ga, gb.y) and (gb, y) to one from y to ga.gb.y
    mult_res = 0.0
    for ga in iso_idx:
        for gb in iso_idx:
            mid = act(gb, ys)
            prod = gpd.mu_batch(np.insert(mid, 0, ga, axis=1),
                                np.insert(ys, 0, gb, axis=1))
            mult_res = worst_residual(mult_res, gpd.alpha_batch(prod) - ys,
                                      gpd.beta_batch(prod) - act(ga, mid))
    return LocalActionForm(iso, float(r), halvings, act_res, bij_res,
                           mult_res)


def path_lift(gpd: LieGroupoid, path: OrbitSpacePath, start_lift: Point,
              tol=DEFAULT.tol_chart) -> GridMap:
    """Lift an orbit-space path through the quotient map, node by node.

    The next node's lift is the group translate of its representative
    nearest to the current lift; near fixed points (competing translates
    closer than a quarter of the coherence bound) lifting errors out
    rather than guessing.

    Every translate of every node, and every distance the walk may read,
    are taken first in one pass over all nodes, with the bits each gets
    alone; the walk then only picks one translate per node.
    """
    grp = gpd.finite_group
    if grp is None:
        raise Unsupported(f"{gpd.name}: needs a finite structure group")
    m = gpd.base
    n = path.grid.n
    delta = m.coherence_bound()
    if not np.isfinite(delta):
        delta = 1.0
    # cands[i, k] is element k applied to node i's representative
    cands = np.stack([e.act(path.representatives) for e in grp.elements],
                     axis=1)
    d0 = np.linalg.norm(cands[0] - start_lift.ambient, axis=-1)
    if float(np.min(d0)) > tol:
        raise StartNotInOrbit(
            f"start lift is {float(np.min(d0)):.3e} from the first orbit")
    # steps[i - 1, j, k]: from translate k at node i - 1 to translate j at
    # node i; seps[i, j, k]: between translates j and k of node i
    steps = np.linalg.norm(cands[1:, :, None] - cands[:-1, None], axis=-1)
    seps = np.linalg.norm(cands[:, :, None] - cands[:, None], axis=-1)
    k = int(np.argmin(d0))
    picks = [k]
    for i in range(1, n):
        dists = steps[i - 1, :, k]
        order = np.argsort(dists)
        k = int(order[0])
        if len(order) > 1 and seps[i, order[1], k] < 0.25 * delta:
            raise BranchAmbiguity(i)
        if dists[k] >= delta:
            raise CoherenceLost(f"orbit gap {dists[k]:.3f} at node {i}")
        picks.append(k)
    out = cands[np.arange(n), picks]
    if path.grid.closed:
        gap = float(np.linalg.norm(out[-1] - out[0]))
        if gap >= delta:
            raise CoherenceLost(f"lift does not close up (gap {gap:.3f})")
    return GridMap(path.grid, m, out, delta_coh=delta)


def lift_projection_residual(gpd: LieGroupoid, path: OrbitSpacePath,
                             lift: GridMap) -> float:
    """Max nodewise orbit distance between the lift and the input path."""
    return worst_residual(orbit_distance(gpd.finite_group, lift.ambient,
                                         path.representatives))


# ---------------------------------------------------------------------------
# the two-chart atlas obstruction
# ---------------------------------------------------------------------------

def atlas_connectivity_negative_test(grid: GridSpec, chart_margin=0.4,
                                     component_offset=10.0) -> Certificate:
    """Grid maps into a two-chart disjoint-union cover of the circle.

    The unit space of a two-chart atlas groupoid is the disjoint union of
    two open arcs.  A coherent grid loop stays in one component, no single
    arc covers the circle, so the identity loop is unrealizable: labelings
    of the identity's values always break coherence at a chart boundary.
    """
    if not grid.closed:
        raise ValueError("the obstruction lives over circle grids")
    th = grid.params()
    # arc A: angles within (-pi + margin, pi - margin); arc B: complement-ish
    ang = np.mod(th + math.pi, TWO_PI) - math.pi
    in_a = np.abs(ang) < math.pi - chart_margin
    in_b = np.minimum(np.mod(ang, TWO_PI), TWO_PI - np.mod(ang, TWO_PI)) \
        > chart_margin
    covered = bool(np.all(in_a | in_b))
    # greedy labeling of the identity loop: component A where valid, else B
    labels = np.where(in_a, 0.0, 1.0)
    valid = np.where(labels == 0.0, in_a, in_b)
    # coherence in the disjoint union: label switches jump by the offset
    switches = np.flatnonzero(np.roll(labels, -1) != labels)
    a_missing = int(np.flatnonzero(~in_a)[0]) if np.any(~in_a) else None
    b_missing = int(np.flatnonzero(~in_b)[0]) if np.any(~in_b) else None
    obstructed = (bool(np.all(valid)) and covered
                  and len(switches) >= 2
                  and a_missing is not None and b_missing is not None)
    # positive control: a short arc stays in one component coherently
    arc_ok = bool(np.all(np.abs(np.linspace(-1.0, 1.0, grid.n))
                         < math.pi - chart_margin))
    return Certificate(
        kind="atlas-connectivity-obstruction",
        inputs={"grid": {"kind": grid.kind, "n": grid.n},
                "chart_margin": chart_margin},
        witness_data={
            "label_switches": [int(s) for s in switches],
            "component_offset": component_offset,
            "node_outside_first_chart": a_missing,
            "node_outside_second_chart": b_missing,
            "short_arc_realizable": arc_ok,
            "arcs_cover_circle": covered,
        },
        verdict="obstructed" if obstructed else "inconclusive",
        max_residual=0.0,
    )
