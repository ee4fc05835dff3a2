"""Lie algebroids of groupoids and their grid-map (current) versions.

The algebroid of a groupoid lives on the kernel of the source derivative
along the unit embedding; the anchor is the target derivative and the
bracket is the commutator of right-invariant extensions restricted to
units.  Everything below is written dual-friendly, so brackets can be
nested (Jacobi) and evaluated inside other derivatives.

Sections and brackets also evaluate on many base points at once: each
ambient component then carries a trailing node axis.  The nodes share
every operation except the chart maps, which gather the nodes of each
chart, map them and scatter them back (:func:`manifolds.node_chart`), so a
node gets the bits it gets alone.  A polynomial section's coefficients may
carry the same node axis (:meth:`LieAlgebroid.polynomial_section`), so
that the nodes of many samples, each with its own section, form one
batch: S grid maps of n nodes give S n nodes, sample-major
(:func:`per_node_coeffs`).  On the n-fold power groupoid the samples
instead sit on a trailing sample axis of every component, each sample
with its own product chart and its own dense solve
(:func:`current_bracket_two_ways`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ad
from .ad import Dual, value
from .errors import FrameProjectionError, RankDrop, Unsupported
from .gridmaps import GridMap, GridSpec
from .groupoids import LieGroupoid, group_groupoid
from .linalg import (dot_list, gram_schmidt, linsolve, matmul,
                     numerical_ranks)
from .manifolds import (Point, ProductManifold, SmoothMap, components_first,
                        map_jacobian, merge_components, node_chart,
                        split_components)
from .report import worst_residual
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
        self._charts = {}  # (shape, float bytes) -> (arrow, base chart ids)

    # -- local kernel frames ---------------------------------------------------
    def _unit_chart_context(self, x_comps):
        """Chart ids for the unit point of x, branch chosen on float values.

        On a batch of nodes, arrays of ids from one ``best_chart`` call per
        manifold.  Points and batches alike are memoised on the shape and
        exact bytes of their float values, so -0.0 and 0.0 stay apart.
        """
        g = self.gpd
        xf = merge_components(x_comps)
        key = xf.shape, xf.tobytes()
        if key not in self._charts:
            u_f = merge_components(g.unit.fn(split_components(xf)))
            self._charts[key] = (g.arrows.best_chart(u_f),
                                 g.base.best_chart(xf))
        return self._charts[key]

    def _alpha_rep(self, cg, cm):
        g = self.gpd
        chart_g = node_chart(g.arrows, cg)
        chart_m = node_chart(g.base, cm)

        def rep(w):
            return chart_m.fwd(g.alpha.fn(chart_g.inv(w)))

        return rep

    def _unit_coords(self, x_comps, cg):
        g = self.gpd
        u_amb = g.unit.fn(list(x_comps))
        return node_chart(g.arrows, cg).fwd(u_amb)

    def kernel_projector(self, u_coords, cg, cm):
        """P = I - J^T (J J^T)^(-1) J for the source Jacobian at the unit.

        J is the dM x dG chart Jacobian of alpha at the unit coordinates
        ``u_coords``, packed (see :func:`ad.pack`) with duals if they carry
        any, and a stack of them when the coordinates carry a node axis.
        J J^T is solved densely with the dG columns of J as right-hand
        sides (no block structure is used, so on a power groupoid this
        stays independent of the nodewise bracket).  Returns P as rows of
        entries.
        """
        g = self.gpd
        dG = g.arrows.dim
        dM = g.base.dim
        if dM == 0:
            return [[1.0 if i == j else 0.0 for j in range(dG)]
                    for i in range(dG)]
        cols = ad.jacobian_columns(self._alpha_rep(cg, cm), list(u_coords))
        J = ad.pack(list(zip(*cols)))  # dM x dG
        Z = linsolve(matmul(J, ad.transpose(J)), J)  # (J J^T)^(-1) J
        P = np.eye(dG) - J[..., 0, :, None] * Z[..., None, 0, :]
        for k in range(1, dM):
            P -= J[..., k, :, None] * Z[..., None, k, :]
        return ad.unpack(P)

    def _select_axes(self, P_float):
        """Greedy chart axes whose projections stay independent.

        Entries are numbers, or arrays over nodes, where each node chooses
        its own axes with the operations it would use alone
        (:func:`ad.where` picks per node).  Returns the axis of each frame
        slot: an int, or an int array over the nodes.
        """
        dG = len(P_float)
        count, active = 0, True  # per node: axes chosen, still choosing
        chosen = [0] * self.rank  # slot s: per node, its s-th axis
        basis = [[0.0] * dG for _ in range(self.rank)]  # and its vector
        filled = 0  # slots that some node has filled
        for i in range(dG):
            w = [P_float[r][i] for r in range(dG)]
            for s, u in enumerate(basis[:filled]):
                c = sum(a * b for a, b in zip(w, u))
                w = [ad.where(count > s, a - c * b, a) for a, b in zip(w, u)]
            nrm = ad.sqrt(sum(a * a for a in w))
            new = active & (nrm > 0.3)
            if _any_node(new):
                safe = ad.where(new, nrm, 1.0)
                for s in range(min(filled + 1, self.rank)):
                    put = new & (count == s)
                    basis[s] = [ad.where(put, a / safe, b)
                                for a, b in zip(w, basis[s])]
                    chosen[s] = ad.where(put, i, chosen[s])
                count = count + new
                filled = min(filled + 1, self.rank)
            active = active & (count < self.rank)
            if not _any_node(active):
                break
        if _any_node(count != self.rank):
            raise RankDrop(f"{self.gpd.name}: kernel frame selection failed")
        return chosen

    def frame_fields(self, x_comps):
        """Orthonormal kernel frame at the unit of x, as chart velocities.

        Returns (frame, cg, u_coords): the frame is a list of chart-velocity
        component lists in chart cg of the arrow manifold (on a batch of
        nodes, cg holds the chart id of each node).
        """
        cg, cm = self._unit_chart_context(x_comps)
        u = self._unit_coords(x_comps, cg)
        P = self.kernel_projector(u, cg, cm)
        Pf = [[value(c) for c in row] for row in P]
        raw = [[_pick(row, i) for row in P] for i in self._select_axes(Pf)]
        frame = gram_schmidt(raw)
        if len(frame) != self.rank:
            raise RankDrop(f"{self.gpd.name}: frame rank drop at a sample")
        return frame, cg, u

    # -- sections ------------------------------------------------------------------
    def section_from_coeffs(self, coeff_fns, name="section"):
        """Section with frame coefficients given by scalar functions of x."""

        def vector_fn(x_comps):
            frame, cg, u = self.frame_fields(x_comps)
            cs = [fn(x_comps) for fn in coeff_fns]
            vel_chart = [0.0] * self.gpd.arrows.dim
            for c, f in zip(cs, frame):
                vel_chart = [a + c * b for a, b in zip(vel_chart, f)]
            _, vel_amb = ad.jvp(node_chart(self.gpd.arrows, cg).inv,
                                list(u), vel_chart)
            return vel_amb

        return AlgebroidSection(self, vector_fn, name=name)

    def random_polynomial_coeffs(self, rng):
        """Draw the coefficients of :meth:`random_polynomial_section`.

        Per frame slot (c0, c1, c2): c0 uniform on [-1, 1], then c1 and c2
        of length d = the base's ambient dimension.
        """
        d = self.base.ambient_dim
        return [(rng.uniform(-1, 1), rng.uniform(-1, 1, size=d),
                 rng.uniform(-1, 1, size=d)) for _ in range(self.rank)]

    def polynomial_section(self, coeffs, name="section"):
        """Frame coefficients c0 + sum_i (c1[i] x_i + c2[i] x_i^2) per slot.

        A coefficient may carry a trailing node axis (c0 of shape (N,), c1
        and c2 of shape (d, N), see :func:`per_node_coeffs`): node k then
        takes the polynomial at k, with the bits it gives alone.
        """

        def polynomial(c0, c1, c2):
            def fn(x_comps):
                acc = c0
                for i in range(len(c1)):
                    acc = (acc + c1[i] * x_comps[i]
                           + c2[i] * x_comps[i] * x_comps[i])
                return acc

            return fn

        return self.section_from_coeffs([polynomial(*c) for c in coeffs],
                                        name=name)

    def random_polynomial_section(self, rng, name="section"):
        """Coefficients polynomial of degree <= 2 in base ambient coordinates."""
        return self.polynomial_section(self.random_polynomial_coeffs(rng),
                                       name=name)

    def constant_section(self, coeffs):
        """Section with constant coefficients in the kernel frame."""
        cs = [float(c) for c in np.asarray(coeffs, dtype=float)]
        return self.section_from_coeffs(
            [lambda xc, c=c: c for c in cs], name="const")

    # -- anchor ------------------------------------------------------------------
    def anchor_vector(self, section: AlgebroidSection, x_comps):
        """Ambient velocity on the base: target derivative of the section value."""
        g = self.gpd
        u = g.unit.fn(list(x_comps))
        v = section.vector_fn(list(x_comps))
        _, out = ad.jvp(g.beta.fn, list(u), list(v))
        return out

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

    def bracket(self, X: AlgebroidSection,
                Y: AlgebroidSection) -> AlgebroidSection:
        """Commutator of the right-invariant extensions, restricted to units.

        Raises :class:`FrameProjectionError` where the commutator leaves the
        kernel by more than ``tol_bracket``, or by NaN.
        """
        g = self.gpd
        fX = self.right_invariant_extension(X)
        fY = self.right_invariant_extension(Y)

        def vector_fn(x_comps):
            cg, cm = self._unit_chart_context(x_comps)
            chart = node_chart(g.arrows, cg)
            u = self._unit_coords(x_comps, cg)
            b = _chart_commutator(chart, fX, fY, u)
            # project onto the kernel; the out-of-kernel residual must be noise
            P = self.kernel_projector(u, cg, cm)
            pb = [dot_list(P[i], b) for i in range(len(b))]
            resid = worst_residual(*[value(a) - value(c)
                                     for a, c in zip(b, pb)])
            if not resid <= self.tol_bracket:
                raise FrameProjectionError(resid)
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
        r = len(frame)
        gram = np.reshape([value(dot_list(a, b)) for a in frame for b in frame],
                          (r, r))
        rhs = [sum(value(f[i]) * wf[i] for i in range(len(wf))) for f in frame]
        return linsolve(gram, np.reshape(rhs, (r, 1)))[:, 0]


def _any_node(flags):
    """Whether flags, a bool or a bool array over nodes, holds at a node."""
    return flags.any() if isinstance(flags, np.ndarray) else bool(flags)


def _pick(entries, axes):
    """entries[axes] at each node, for axes an int or an int array over
    the nodes."""
    if not isinstance(axes, np.ndarray):
        return entries[axes]
    choices = np.unique(axes)
    out = entries[int(choices[0])]
    for i in choices[1:]:
        out = ad.where(axes == i, entries[int(i)], out)
    return out


def algebroid_of_groupoid(gpd: LieGroupoid, tol_rank=DEFAULT.tol_rank,
                          tol_bracket=DEFAULT.tol_bracket) -> LieAlgebroid:
    """Kernel rank is probed at 5 seeded sample points and must be constant."""
    rng = np.random.default_rng(0)
    xs = np.stack([gpd.base.sample(rng) for _ in range(5)])
    J = map_jacobian(gpd.alpha, gpd.unit.apply_batch(xs))
    s = np.linalg.svd(J, compute_uv=False)
    ranks = (gpd.arrows.dim - numerical_ranks(s, tol_rank)).tolist()
    if len(set(ranks)) != 1:
        raise RankDrop(f"{gpd.name}: kernel dimension varies across samples: {ranks}")
    return LieAlgebroid(gpd, ranks[0], tol_bracket)


# ---------------------------------------------------------------------------
# vector-field brackets on the base (for the anchor-morphism property)
# ---------------------------------------------------------------------------

def vector_field_bracket(m, V_fn, W_fn):
    """Bracket of two ambient-velocity vector fields on a charted manifold.

    On a batch of nodes each node is bracketed in its own best chart.
    """

    def out_fn(x_comps):
        chart = node_chart(m, m.best_chart(merge_components(x_comps)))
        u = chart.fwd(list(x_comps))
        b = _chart_commutator(chart, V_fn, W_fn, u)
        _, vel_amb = ad.jvp(chart.inv, list(u), b)
        return vel_amb

    return out_fn


def law_residuals(alg: LieAlgebroid, X, Y, Z, x_comps):
    """The algebroid laws at base points x, as ambient residual arrays.

    In order: antisymmetry [X, Y] + [Y, X]; the Jacobi sum; the Leibniz
    rule [X, fY] - f [X, Y] - (a(X) f) Y in the second argument, for
    f = 1/2 + x_0^2 - x_{d-1}/4; and the anchor as a morphism into vector
    fields, a[X, Y] - [a X, a Y].  On a batch of nodes, each row is a
    node, with the bits it gets alone.
    """

    def at(section):
        return merge_components(section.vector_fn(x_comps))

    XY = alg.bracket(X, Y)
    anti = at(XY) + at(alg.bracket(Y, X))
    jac = (at(alg.bracket(X, alg.bracket(Y, Z))) + at(alg.bracket(Z, XY))
           + at(alg.bracket(Y, alg.bracket(Z, X))))
    f = lambda xc: 0.5 + xc[0] * xc[0] - 0.25 * xc[-1]
    aX = merge_components(alg.anchor_vector(X, x_comps))
    aXf = ad.jvp(lambda c: [f(c)], x_comps, list(components_first(aX)))[1][0]
    fx = np.asarray(f(x_comps))[..., None]
    leib = (at(alg.bracket(X, Y.times_function(f)))
            - (fx * at(XY) + np.asarray(aXf)[..., None] * at(Y)))
    vf = vector_field_bracket(alg.base,
                              lambda c: alg.anchor_vector(X, c),
                              lambda c: alg.anchor_vector(Y, c))
    morph = (merge_components(alg.anchor_vector(XY, x_comps))
             - merge_components(vf(x_comps)))
    return anti, jac, leib, morph


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

def per_node_coeffs(draws, n):
    """The coefficients of S draws on S n nodes, for :meth:`polynomial_section`.

    draws[s] holds the (c0, c1, c2) of each frame slot, as
    :meth:`LieAlgebroid.random_polynomial_coeffs` draws them; node s n + i
    (sample-major) takes draw s.
    """
    return [tuple(np.repeat(np.stack(parts, axis=-1), n, axis=-1)
                  for parts in zip(*slot)) for slot in zip(*draws)]


def current_bracket_values(alg: LieAlgebroid, X, Y, base):
    """Nodewise bracket values along a grid map, as ambient velocities.

    One evaluation of the bracket on all nodes at once, each ambient
    component carrying the node axis; each node gets the bits of the
    bracket evaluated at that node alone.  base may be a list of S grid
    maps, whose nodes then follow one another (sample-major).
    """
    nodes = (base.ambient if isinstance(base, GridMap)
             else np.concatenate([b.ambient for b in base]))
    br = alg.bracket(X, Y)
    return merge_components(br.vector_fn(list(nodes.T)))


def lift_section(power_alg: LieAlgebroid, base_section: AlgebroidSection,
                 n: int, am: int) -> AlgebroidSection:
    """Pointwise lift of a base section to the n-fold power algebroid.

    The base section is evaluated once on all n nodes: each of its am
    components is the row of that component over the nodes (:func:`ad.pack`),
    and each output component is split back into nodes (:func:`ad.unpack`).
    Components with a trailing axis of S samples put all S n nodes on one
    axis, sample-major (:func:`ad.scatter`), and take each node's S values
    back (:func:`ad.take`).
    """

    def vector_fn(x_comps):
        shape = np.shape(value(x_comps[0]))
        if shape:
            rows = [np.arange(i, shape[-1] * n, n) for i in range(n)]
            nodes = [ad.scatter(x_comps[j::am], rows, shape[-1] * n)
                     for j in range(am)]
            out = [[ad.take(o, r) for r in rows]
                   for o in base_section.vector_fn(nodes)]
        else:
            nodes = [ad.pack([x_comps[j::am]])[..., 0, :] for j in range(am)]
            out = [_node_entries(o, n) for o in base_section.vector_fn(nodes)]
        return [o[i] for i in range(n) for o in out]

    return AlgebroidSection(power_alg, vector_fn,
                            name=f"lift({base_section.name})")


def _node_entries(x, n):
    """The n entries of x along its trailing node axis; a number is the
    same at every node."""
    if isinstance(x, Dual):
        return [Dual(r, e) for r, e in zip(_node_entries(x.re, n),
                                           _node_entries(x.ep, n))]
    if np.ndim(x) == 0:
        return [x] * n
    return ad.unpack(x[..., None, :])[0]


def current_bracket_two_ways(gpd: LieGroupoid, grid: GridSpec, X, Y, base,
                             tol_bracket=DEFAULT.tol_bracket):
    """Compare the bracket through the big groupoid against the nodewise one.

    Route one: the groupoid of grid maps is the n-fold power of the base
    groupoid; take its algebroid and bracket the lifted sections.  Its
    kernel projector solves the dense J J^T of the power groupoid, with no
    block shortcut, so it stays an independent cross-check; only the
    lifted sections evaluate the base sections on all nodes at once.
    Route two: bracket in the base algebroid, evaluated on all nodes in one
    batch (:func:`current_bracket_values`).  Returns the maximum nodewise
    discrepancy of the resulting ambient velocities.

    base may be a list of S grid maps, with X and Y carrying per-node
    coefficients of the S n nodes in sample-major order (see
    :func:`per_node_coeffs`).  Route one then gives each component of the
    power groupoid a trailing axis of the S samples; each sample takes its
    own product chart and its own dense J J^T in the stacked solve.  A
    single grid map keeps float components.  Both routes project their
    brackets with ``tol_bracket`` (:meth:`LieAlgebroid.bracket`).
    """
    n = grid.n
    am = gpd.base.ambient_dim
    power = groupoid_power(gpd, n)
    alg_small = algebroid_of_groupoid(gpd, tol_bracket=tol_bracket)
    alg_big = LieAlgebroid(power, alg_small.rank * n, tol_bracket)
    Xb = lift_section(alg_big, X, n, am)
    Yb = lift_section(alg_big, Y, n, am)
    # One grid map keeps float components rather than running as a batch of
    # one, where every component is a one-element array.  Both give the same
    # bits, but the batch is slower: on a 2-vCPU Xeon at seed 7, pair-real2
    # at n = 24 took 9.3 ms a call on floats against 22.6 ms as a batch of
    # one, and rot-action at n = 12 took 9.8 ms against 12.6 ms.
    if isinstance(base, GridMap):
        stacked = base.ambient.ravel()
    else:
        stacked = np.stack([b.ambient.ravel() for b in base], axis=-1)
    big_val = merge_components(
        alg_big.bracket(Xb, Yb).vector_fn(list(stacked)))
    node_val = current_bracket_values(alg_small, X, Y, base)
    big_rows = big_val.reshape(-1, gpd.arrows.ambient_dim)
    return worst_residual(big_rows - node_val)


# ---------------------------------------------------------------------------
# bracket sign conventions for groups
# ---------------------------------------------------------------------------

@dataclass
class SignReport:
    sign: float | None
    consistent: bool
    note: str


def sign_convention_check(group, seed=0,
                          tol_bracket=DEFAULT.tol_bracket) -> SignReport:
    """Measure the groupoid-bracket sign against the matrix commutator.

    ``group`` is a catalog Lie group manifold; a non-abelian one carries
    its algebra ``commutator``.  For a group as a groupoid over a point,
    the algebroid bracket of constant sections is proportional to the
    algebra commutator; the proportionality sign is measured, not assumed.
    """
    gpd = group_groupoid(group)
    alg = algebroid_of_groupoid(gpd, tol_bracket=tol_bracket)
    d = alg.rank
    star = gpd.base.point_from_ambient([0.0])
    if d <= 1:
        return SignReport(None, True,
                          "abelian: bracket vanishes, sign undetermined")
    if not hasattr(group, "commutator"):
        raise Unsupported(f"{group.name}: no algebra commutator registered")
    signs = []
    rng = np.random.default_rng(seed)
    for _ in range(4):
        xi = rng.normal(size=d)
        eta = rng.normal(size=d)
        X = alg.constant_section(xi)
        Y = alg.constant_section(eta)
        got = alg.coefficients_in_frame(alg.bracket(X, Y), star)
        expected = np.asarray(group.commutator(xi, eta), dtype=float)
        denom = float(np.linalg.norm(expected))
        if denom < 1e-9:
            continue
        signs.append(float(np.dot(got, expected)) / denom ** 2)
    sign = float(np.sign(signs[0])) if signs else None
    consistent = all(abs(s - signs[0]) < 1e-6 for s in signs)
    return SignReport(sign, consistent,
                      "groupoid bracket vs algebra commutator")
