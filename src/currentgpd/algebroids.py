"""Lie algebroids of groupoids and their grid-map (current) versions.

The algebroid of a groupoid lives on the kernel of the source derivative
along the unit embedding; the anchor is the target derivative and the
bracket is the commutator of right-invariant extensions restricted to
units.  Everything below is written dual-friendly, so brackets can be
nested (Jacobi) and evaluated inside other derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .ad import Dual, value
from .errors import FrameProjectionError, RankDrop, Unsupported
from .gridmaps import GridMap, GridSpec
from .groupoids import LieGroupoid
from .linalg import dot_list, gram_schmidt, linsolve
from .manifolds import (Point, ProductManifold, SmoothMap, Tangent,
                        merge_components, tangent_from_ambient)
from .tolerances import DEFAULT


def _chart_commutator(chart, V, W, u):
    """[V, W] at chart coords u, in chart coords, for ambient-velocity fields.

    Each field is read in the chart as w -> d fwd(V(inv(w))); the bracket is
    the commutator dW[V] - dV[W] of the two chart fields.
    """

    def chart_field(field):
        def rep(w):
            amb = chart.inv(w)
            vel = field(amb)
            _, out = ad.jvp(chart.fwd, amb, vel)
            return out

        return rep

    FV = chart_field(V)
    FW = chart_field(W)
    vv = FV(list(u))
    ww = FW(list(u))
    _, dWv = ad.jvp(FW, list(u), vv)
    _, dVw = ad.jvp(FV, list(u), ww)
    return [a - c for a, c in zip(dWv, dVw)]


class AlgebroidSection:
    """A section given by its value rule: base ambient -> ambient velocity at the unit."""

    def __init__(self, algebroid, vector_fn, name="section"):
        self.algebroid = algebroid
        self.vector_fn = vector_fn
        self.name = name

    def at(self, x: Point) -> Tangent:
        g = self.algebroid.gpd
        u_amb = merge_components(g.unit.fn(list(x.ambient)))
        vel = merge_components(self.vector_fn(list(x.ambient)))
        return tangent_from_ambient(g.arrows, u_amb, vel)

    def scaled(self, c):
        return AlgebroidSection(
            self.algebroid,
            lambda xc: [c * v for v in self.vector_fn(xc)],
            name=f"{c}*{self.name}")

    def plus(self, other):
        return AlgebroidSection(
            self.algebroid,
            lambda xc: [a + b for a, b in
                        zip(self.vector_fn(xc), other.vector_fn(xc))],
            name=f"{self.name}+{other.name}")

    def times_function(self, f):
        """Multiply by a scalar function of the base ambient coordinates."""
        return AlgebroidSection(
            self.algebroid,
            lambda xc: [f(xc) * v for v in self.vector_fn(xc)],
            name=f"f*{self.name}")


class LieAlgebroid:
    """Anchored bundle with bracket, attached to a groupoid."""

    def __init__(self, gpd: LieGroupoid, rank: int,
                 tol_bracket=DEFAULT.tol_bracket):
        self.gpd = gpd
        self.base = gpd.base
        self.rank = rank
        self.tol_bracket = tol_bracket

    # -- local kernel frames ---------------------------------------------------
    def _unit_chart_context(self, x_comps):
        """Chart ids for the unit point of x, branch chosen on float values."""
        g = self.gpd
        xf = np.asarray([value(c) for c in x_comps], dtype=float)
        u_f = merge_components(g.unit.fn(list(xf)))
        cg = int(g.arrows.best_chart(u_f))
        cm = int(g.base.best_chart(xf))
        return cg, cm

    def _alpha_rep(self, cg, cm):
        g = self.gpd
        chart_g = g.arrows.charts[cg]
        chart_m = g.base.charts[cm]

        def rep(w):
            return chart_m.fwd(g.alpha.fn(chart_g.inv(w)))

        return rep

    def _unit_coords(self, x_comps, cg):
        g = self.gpd
        u_amb = g.unit.fn(list(x_comps))
        return g.arrows.charts[cg].fwd(u_amb)

    def kernel_projector(self, u_coords, cg, cm):
        """P = I - J^T (J J^T)^(-1) J for the source Jacobian at the unit.

        J is the dM x dG chart Jacobian of alpha at the unit coordinates
        ``u_coords``, with duals if they carry any.  J J^T is solved densely
        (no block structure is used, so on a power groupoid this stays
        independent of the nodewise bracket) and factored once for all dG
        columns of J.
        """
        g = self.gpd
        dG = g.arrows.dim
        dM = g.base.dim
        if dM == 0:
            return [[1.0 if i == j else 0.0 for j in range(dG)]
                    for i in range(dG)]
        rep = self._alpha_rep(cg, cm)
        cols = ad.jacobian_columns(rep, list(u_coords))  # dG columns of len dM
        J = [[cols[j][i] for j in range(dG)] for i in range(dM)]
        JJt = [[dot_list(J[i], J[k]) for k in range(dM)] for i in range(dM)]
        # Z = (J J^T)^(-1) J: one factorisation, the dG columns of J as rhs
        Z = linsolve(JJt, [[J[i][j] for i in range(dM)] for j in range(dG)])
        P = []
        for i in range(dG):
            row = []
            for j in range(dG):
                acc = 1.0 if i == j else 0.0
                for k in range(dM):
                    acc = acc - J[k][i] * Z[j][k]
                row.append(acc)
            P.append(row)
        return P

    def _select_axes(self, P_float):
        """Greedy chart axes whose projections stay independent."""
        dG = len(P_float)
        chosen = []
        basis = []
        for i in range(dG):
            v = [P_float[r][i] for r in range(dG)]
            w = list(v)
            for u in basis:
                c = sum(a * b for a, b in zip(w, u))
                w = [a - c * b for a, b in zip(w, u)]
            nrm = float(np.sqrt(sum(a * a for a in w)))
            if nrm > 0.3:
                basis.append([a / nrm for a in w])
                chosen.append(i)
            if len(chosen) == self.rank:
                break
        if len(chosen) != self.rank:
            raise RankDrop(f"{self.gpd.name}: kernel frame selection failed")
        return chosen

    def frame_fields(self, x_comps):
        """Orthonormal kernel frame at the unit of x, as chart velocities.

        Returns (frame, cg, u_coords): the frame is a list of chart-velocity
        component lists in chart cg of the arrow manifold.
        """
        cg, cm = self._unit_chart_context(x_comps)
        u = self._unit_coords(x_comps, cg)
        P = self.kernel_projector(u, cg, cm)
        Pf = [[value(c) for c in row] for row in P]
        axes = self._select_axes(Pf)
        raw = [[P[r][i] for r in range(len(P))] for i in axes]
        frame = gram_schmidt(raw)
        if len(frame) != self.rank:
            raise RankDrop(f"{self.gpd.name}: frame rank drop at a sample")
        return frame, cg, u

    def fiber_frame(self, x: Point):
        """Frame as tangent vectors on the arrow manifold at the unit."""
        frame, cg, u = self.frame_fields(list(x.ambient))
        g = self.gpd
        out = []
        for f in frame:
            _, v_amb = ad.jvp(g.arrows.charts[cg].inv,
                              [value(c) for c in u], [value(c) for c in f])
            u_amb = merge_components(g.arrows.charts[cg].inv(
                [value(c) for c in u]))
            out.append(tangent_from_ambient(g.arrows, u_amb,
                                            np.asarray([value(c) for c in v_amb]),
                                            chart_id=cg))
        return out

    # -- sections ------------------------------------------------------------------
    def section_from_coeffs(self, coeff_fns, name="section"):
        """Section with frame coefficients given by scalar functions of x."""

        def vector_fn(x_comps):
            frame, cg, u = self.frame_fields(x_comps)
            cs = [fn(x_comps) for fn in coeff_fns]
            vel_chart = [0.0] * self.gpd.arrows.dim
            for c, f in zip(cs, frame):
                vel_chart = [a + c * b for a, b in zip(vel_chart, f)]
            _, vel_amb = ad.jvp(self.gpd.arrows.charts[cg].inv, list(u),
                                vel_chart)
            return vel_amb

        return AlgebroidSection(self, vector_fn, name=name)

    def random_polynomial_section(self, rng, name="section"):
        """Coefficients polynomial of degree <= 2 in base ambient coordinates."""
        d = self.base.ambient_dim
        fns = []
        for _ in range(self.rank):
            c0 = rng.uniform(-1, 1)
            c1 = rng.uniform(-1, 1, size=d)
            c2 = rng.uniform(-1, 1, size=d)

            def fn(x_comps, c0=c0, c1=c1, c2=c2):
                acc = c0
                for i in range(d):
                    acc = acc + c1[i] * x_comps[i] + c2[i] * x_comps[i] * x_comps[i]
                return acc

            fns.append(fn)
        return self.section_from_coeffs(fns, name=name)

    def constant_section(self, coeffs, name="const"):
        """Section with constant coefficients in the kernel frame."""
        cs = [float(c) for c in np.asarray(coeffs, dtype=float)]
        return self.section_from_coeffs(
            [lambda xc, c=c: c for c in cs], name=name)

    # -- anchor ------------------------------------------------------------------
    def anchor_vector(self, section: AlgebroidSection, x_comps):
        """Ambient velocity on the base: target derivative of the section value."""
        g = self.gpd
        u = g.unit.fn(list(x_comps))
        v = section.vector_fn(list(x_comps))
        _, out = ad.jvp(g.beta.fn, list(u), list(v))
        return out

    def anchor_of(self, section: AlgebroidSection, x: Point) -> Tangent:
        vel = merge_components(self.anchor_vector(section, list(x.ambient)))
        return tangent_from_ambient(self.base, x.ambient, vel)

    # -- right-invariant extension and bracket ------------------------------------
    def right_invariant_extension(self, section: AlgebroidSection):
        """The field g -> T(R_g) section(beta(g)) as an ambient-velocity rule."""
        g = self.gpd

        def field(g_comps):
            x = g.beta.fn(list(g_comps))
            v = section.vector_fn(list(x))
            u = g.unit.fn(list(x))
            seeded = [Dual(a, b) for a, b in zip(u, v)]
            frozen = [Dual(c, 0.0) for c in g_comps]
            out = g.mu_fn(seeded, frozen)
            return [o.ep if isinstance(o, Dual) else 0.0 * value(o) for o in out]

        return field

    def extension_at(self, section, gpt: Point) -> Tangent:
        vel = merge_components(self.right_invariant_extension(section)(
            list(gpt.ambient)))
        return tangent_from_ambient(self.gpd.arrows, gpt.ambient, vel)

    def bracket(self, X: AlgebroidSection, Y: AlgebroidSection,
                check_kernel=True) -> AlgebroidSection:
        """Commutator of the right-invariant extensions, restricted to units."""
        g = self.gpd
        fX = self.right_invariant_extension(X)
        fY = self.right_invariant_extension(Y)

        def vector_fn(x_comps):
            cg, cm = self._unit_chart_context(x_comps)
            chart = g.arrows.charts[cg]
            u = self._unit_coords(x_comps, cg)
            b = _chart_commutator(chart, fX, fY, u)
            # project onto the kernel; the out-of-kernel residual must be noise
            P = self.kernel_projector(u, cg, cm)
            pb = [dot_list(P[i], b) for i in range(len(b))]
            if check_kernel:
                resid = max(abs(value(a) - value(c)) for a, c in zip(b, pb))
                if resid > self.tol_bracket:
                    raise FrameProjectionError(
                        f"bracket leaves the kernel by {resid:.2e}")
            _, vel_amb = ad.jvp(chart.inv, list(u), pb)
            return vel_amb

        return AlgebroidSection(self, vector_fn, name=f"[{X.name},{Y.name}]")

    def coefficients_in_frame(self, section: AlgebroidSection, x: Point):
        """Express a section value in the kernel frame at x."""
        frame, cg, u = self.frame_fields(list(x.ambient))
        chart = self.gpd.arrows.charts[cg]
        vel = section.vector_fn(list(x.ambient))
        _, w = ad.jvp(chart.fwd, chart.inv([value(c) for c in u]), vel)
        wf = [value(c) for c in w]
        gram = [[value(dot_list(a, b)) for b in frame] for a in frame]
        rhs = [sum(value(f[i]) * wf[i] for i in range(len(wf))) for f in frame]
        return np.asarray(linsolve(gram, [rhs])[0], dtype=float)


def algebroid_of_groupoid(gpd: LieGroupoid, n_probe=5, seed=0,
                          tol_rank=DEFAULT.tol_rank) -> LieAlgebroid:
    """Kernel rank is probed at sample points and must be constant."""
    from .manifolds import map_jacobian
    rng = np.random.default_rng(seed)
    ranks = []
    for _ in range(n_probe):
        x = gpd.base.point_from_ambient(gpd.base.sample(rng))
        u = gpd.unit.at(x)
        J, _ = map_jacobian(gpd.alpha, u)
        s = np.linalg.svd(J, compute_uv=False) if J.size else np.zeros(0)
        thr = tol_rank * max(float(s[0]) if len(s) else 0.0, 1.0)
        ranks.append(gpd.arrows.dim - int(np.sum(s > thr)))
    if len(set(ranks)) != 1:
        raise RankDrop(f"{gpd.name}: kernel dimension varies across samples: {ranks}")
    return LieAlgebroid(gpd, ranks[0])


# ---------------------------------------------------------------------------
# vector-field brackets on the base (for the anchor-morphism property)
# ---------------------------------------------------------------------------

def vector_field_bracket(m, V_fn, W_fn):
    """Bracket of two ambient-velocity vector fields on a charted manifold."""

    def out_fn(x_comps):
        xf = np.asarray([value(c) for c in x_comps], dtype=float)
        cid = int(m.best_chart(xf))
        chart = m.charts[cid]
        u = chart.fwd(list(x_comps))
        b = _chart_commutator(chart, V_fn, W_fn, u)
        _, vel_amb = ad.jvp(chart.inv, list(u), b)
        return vel_amb

    return out_fn


# ---------------------------------------------------------------------------
# groupoid powers: the finite-grid current groupoid as one big groupoid
# ---------------------------------------------------------------------------

def groupoid_power(gpd: LieGroupoid, n: int) -> LieGroupoid:
    """The n-fold product groupoid; nodewise structure maps on stacked arrows."""
    G = ProductManifold([gpd.arrows] * n, name=f"{gpd.arrows.name}^{n}")
    M = ProductManifold([gpd.base] * n, name=f"{gpd.base.name}^{n}")
    ag = gpd.arrows.ambient_dim
    am = gpd.base.ambient_dim

    def blockwise(fn, width_in):
        def out(comps):
            res = []
            for i in range(n):
                res.extend(fn(list(comps[i * width_in:(i + 1) * width_in])))
            return res

        return out

    def mu_fn(g, h):
        res = []
        for i in range(n):
            res.extend(gpd.mu_fn(list(g[i * ag:(i + 1) * ag]),
                                 list(h[i * ag:(i + 1) * ag])))
        return res

    out = LieGroupoid(
        f"{gpd.name}^{n}", G, M,
        SmoothMap(G, M, blockwise(gpd.alpha.fn, ag), name="alpha"),
        SmoothMap(G, M, blockwise(gpd.beta.fn, ag), name="beta"),
        mu_fn,
        SmoothMap(G, G, blockwise(gpd.iota.fn, ag), name="iota"),
        SmoothMap(M, G, blockwise(gpd.unit.fn, am), name="unit"))
    return out


# ---------------------------------------------------------------------------
# current algebroids
# ---------------------------------------------------------------------------

class CurrentAlgebroid:
    """Sections along grid maps with nodewise anchor and bracket."""

    def __init__(self, algebroid: LieAlgebroid, grid: GridSpec):
        self.base_algebroid = algebroid
        self.grid = grid

    def bracket_values(self, X, Y, base: GridMap):
        """Nodewise bracket values along a grid map, as ambient velocities."""
        br = self.base_algebroid.bracket(X, Y)
        rows = [merge_components(br.vector_fn(list(base.ambient[i])))
                for i in range(self.grid.n)]
        return np.stack(rows)


def current_algebroid(alg: LieAlgebroid, grid: GridSpec) -> CurrentAlgebroid:
    return CurrentAlgebroid(alg, grid)


def lift_section(power_alg: LieAlgebroid, base_section: AlgebroidSection,
                 n: int, am: int) -> AlgebroidSection:
    """Pointwise lift of a base section to the n-fold power algebroid."""

    def vector_fn(x_comps):
        out = []
        for i in range(n):
            out.extend(base_section.vector_fn(
                list(x_comps[i * am:(i + 1) * am])))
        return out

    return AlgebroidSection(power_alg, vector_fn,
                            name=f"lift({base_section.name})")


def current_bracket_two_ways(gpd: LieGroupoid, grid: GridSpec, X, Y,
                             base: GridMap):
    """Compare the bracket through the big groupoid against the nodewise one.

    Route one: the groupoid of grid maps is the n-fold power of the base
    groupoid; take its algebroid and bracket the lifted sections.  Route
    two: bracket in the base algebroid and evaluate node by node.  Returns
    the maximum nodewise discrepancy of the resulting ambient velocities.
    """
    n = grid.n
    am = gpd.base.ambient_dim
    power = groupoid_power(gpd, n)
    alg_small = algebroid_of_groupoid(gpd)
    alg_big = LieAlgebroid(power, alg_small.rank * n)
    Xb = lift_section(alg_big, X, n, am)
    Yb = lift_section(alg_big, Y, n, am)
    stacked = np.concatenate(list(base.ambient))
    big_val = merge_components(
        alg_big.bracket(Xb, Yb).vector_fn(list(stacked)))
    cur = current_algebroid(alg_small, grid)
    node_val = cur.bracket_values(X, Y, base)
    big_rows = big_val.reshape(n, gpd.arrows.ambient_dim)
    return float(np.max(np.abs(big_rows - node_val)))


# ---------------------------------------------------------------------------
# bracket sign conventions for groups
# ---------------------------------------------------------------------------

@dataclass
class SignReport:
    group: str
    abelian: bool
    sign: float | None
    consistent: bool
    note: str


def sign_convention_check(group_ops, seed=0) -> SignReport:
    """Measure the groupoid-bracket sign against the matrix commutator.

    For a group as a groupoid over a point, the algebroid bracket of
    constant sections is proportional to the algebra commutator; the
    proportionality sign is measured, not assumed.
    """
    from .groupoids import group_groupoid
    gpd = group_groupoid(group_ops)
    alg = algebroid_of_groupoid(gpd)
    d = alg.rank
    star = gpd.base.point_from_ambient([0.0])
    if d <= 1:
        return SignReport(group_ops.name, True, None, True,
                          "abelian: bracket vanishes, sign undetermined")
    if not hasattr(group_ops, "commutator"):
        raise Unsupported(f"{group_ops.name}: no algebra commutator registered")
    signs = []
    rng = np.random.default_rng(seed)
    for _ in range(4):
        xi = rng.normal(size=d)
        eta = rng.normal(size=d)
        X = alg.constant_section(xi)
        Y = alg.constant_section(eta)
        got = alg.coefficients_in_frame(alg.bracket(X, Y), star)
        expected = np.asarray(group_ops.commutator(xi, eta), dtype=float)
        denom = float(np.linalg.norm(expected))
        if denom < 1e-9:
            continue
        signs.append(float(np.dot(got, expected)) / denom ** 2)
    sign = float(np.sign(signs[0])) if signs else None
    consistent = all(abs(s - signs[0]) < 1e-6 for s in signs)
    return SignReport(group_ops.name, False, sign, consistent,
                      "groupoid bracket vs algebra commutator")
