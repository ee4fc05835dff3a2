"""Local additions: exponential-style maps from tangent neighborhoods.

A local addition is a smooth map ``sigma`` from a neighborhood U of the zero
section of TM to M with sigma(0_p) = p such that (projection, sigma) is a
diffeomorphism onto a neighborhood of the diagonal.  Constructions here:
closed-form geodesic exponentials for catalog manifolds, a normalization pass
that makes the fiber derivative at zero the identity, and the lift of a local
addition to TM.  The catalog Lie groups carry bi-invariant metrics, so on
them the geodesic exponential is also the left-translated group exponential.
"""

from __future__ import annotations

import numpy as np

from . import ad
from .ad import Dual, value
from .errors import (DomainViolation, NotInThetaImage, SingularNormalization,
                     Unsupported)
from .linalg import linsolve, newton, numerical_ranks
from .manifolds import (ChartedManifold, Point, ProductManifold, Tangent,
                        merge_components, split_components,
                        tangent_from_ambient)
from .tolerances import DEFAULT


class LocalAddition:
    """The pair (U, sigma) with theta = (projection, sigma)."""

    def __init__(self, manifold, sigma_fn, domain_fn, closed_log=None,
                 name="sigma"):
        self.manifold = manifold
        self.sigma_fn = sigma_fn              # TM-ambient comps -> M-ambient comps
        self.domain_fn = domain_fn            # (p_amb, v_amb float arrays) -> bool
        self.closed_log = closed_log          # (p comps, q comps) -> v_amb comps
        self.name = name

    # -- evaluation ---------------------------------------------------------
    def contains(self, t: Tangent):
        """Whether t lies in U; a stacked t gives one bool per row."""
        vel = t.ambient_vel()
        if vel.ndim == 1:
            return bool(self.domain_fn(t.base.ambient, vel))
        return np.array([bool(self.domain_fn(p, v))
                         for p, v in zip(t.base.ambient, vel)])

    def sigma(self, t: Tangent) -> Point:
        if not self.contains(t):
            raise DomainViolation(f"{self.name}: tangent outside domain U")
        comps = list(t.base.ambient) + list(t.ambient_vel())
        out = merge_components(self.sigma_fn(comps))
        return self.manifold.point_from_ambient(out)

    def sigma_batch(self, base_amb, vel_amb):
        """Vectorized sigma on stacked ambient positions and velocities."""
        comps = split_components(np.asarray(base_amb, dtype=float)) + \
            split_components(np.asarray(vel_amb, dtype=float))
        return merge_components(self.sigma_fn(comps))

    # -- inversion ------------------------------------------------------------
    def theta_inverse(self, p: Point, q: Point,
                      tol=DEFAULT.tol_theta) -> Tangent:
        if self.closed_log is not None:
            return self.log(p, q.ambient, tol=tol)
        m = self.manifold
        chart = m.charts[p.chart_id]
        x = list(p.coords)
        qc = m.charts[q.chart_id]
        q_target = [float(c) for c in q.coords]

        def residual(w):
            _, v = ad.jvp(chart.inv, x, w)
            out = self.sigma_fn(list(chart.inv(x)) + list(v))
            yc = qc.fwd(out)
            return [a - b for a, b in zip(yc, q_target)]

        w = newton(residual, [0.0] * m.dim, tol, 50, 1e6)
        if w is None:
            raise NotInThetaImage(f"{self.name}: Newton did not converge")
        _, v = ad.jvp(chart.inv, x, w)
        v = np.asarray([value(c) for c in v], dtype=float)
        if not self.domain_fn(p.ambient, v):
            raise NotInThetaImage(f"{self.name}: Newton left domain U")
        return Tangent(p, np.asarray(w, dtype=float))

    def log(self, p: Point, q_amb, tol=DEFAULT.tol_theta) -> Tangent:
        """theta_inverse through the closed-form log, with q given by its
        ambient rows.

        A stacked p (rows of one chart) and (..., m) rows q_amb run the log,
        the chart velocities and sigma once over all rows; each row gets the
        bits it gets alone.  It raises NotInThetaImage if a row's log leaves
        U or misses its q by more than tol.
        """
        m = self.manifold
        v = merge_components(self.closed_log(split_components(p.ambient),
                                             split_components(q_amb)))
        am = m.ambient_dim
        if not all(map(self.domain_fn, np.reshape(p.ambient, (-1, am)),
                       np.reshape(v, (-1, am)))):
            raise NotInThetaImage(f"{self.name}: log outside domain U")
        t = tangent_from_ambient(m, p.ambient, v, p.chart_id)
        res = m.distance(self.sigma_batch(p.ambient, v), q_amb)
        if np.any(res > tol):
            raise NotInThetaImage(f"{self.name}: closed-form residual {np.max(res):.2e}")
        return t


def _radius_domain(manifold, radius):
    def domain(p_amb, v_amb):
        return manifold.speed(list(np.asarray(p_amb, dtype=float)),
                              list(np.asarray(v_amb, dtype=float))) < radius

    return domain


def riemannian_local_addition(m: ChartedManifold) -> LocalAddition:
    """Closed-form geodesic exponential restricted to the injectivity ball."""
    if isinstance(m, ProductManifold):
        return product_local_addition(
            m, [riemannian_local_addition(f) for f in m.factors])
    if not hasattr(m, "exp_amb"):
        raise Unsupported(f"no closed-form exponential for {m.name}")
    am = m.ambient_dim

    def sigma_fn(comps):
        return m.exp_amb(list(comps[:am]), list(comps[am:]))

    def closed_log(p, q):
        return m.log_amb(p, q)

    return LocalAddition(m, sigma_fn, _radius_domain(m, m.injectivity_radius),
                         closed_log=closed_log, name=f"exp_{m.name}")


def product_local_addition(pm: ProductManifold, factor_adds) -> LocalAddition:
    offs = pm.amb_offsets
    am = pm.ambient_dim

    def sigma_fn(comps):
        out = []
        for i, add in enumerate(factor_adds):
            p = list(comps[offs[i]:offs[i + 1]])
            v = list(comps[am + offs[i]:am + offs[i + 1]])
            out.extend(add.sigma_fn(p + v))
        return out

    def domain(p_amb, v_amb):
        p_amb = np.asarray(p_amb, dtype=float)
        v_amb = np.asarray(v_amb, dtype=float)
        return all(add.domain_fn(p_amb[offs[i]:offs[i + 1]],
                                 v_amb[offs[i]:offs[i + 1]])
                   for i, add in enumerate(factor_adds))

    closed = None
    if all(a.closed_log is not None for a in factor_adds):
        def closed(p, q):
            out = []
            for i, add in enumerate(factor_adds):
                out.extend(add.closed_log(list(p[offs[i]:offs[i + 1]]),
                                          list(q[offs[i]:offs[i + 1]])))
            return out

    return LocalAddition(pm, sigma_fn, domain, closed_log=closed,
                         name=f"prod({','.join(a.name for a in factor_adds)})")


def fiber_derivative(add: LocalAddition, p: Point, h=DEFAULT.h_fd):
    """Finite-difference derivative of sigma|_(T_pM) at 0_p, in chart coords.

    Central differences of w -> chart(sigma(d inv . w)) at w = 0,
    independent of the AD path; the normalization checks are defined against
    this matrix.
    """
    m = add.manifold
    chart = m.charts[p.chart_id]

    def rep(w):
        _, v = ad.jvp(chart.inv, list(p.coords), w)
        q = add.sigma_batch(p.ambient, [value(c) for c in v])
        return chart.fwd(split_components(q))

    return ad.fd_jacobian(rep, [0.0] * m.dim, h)


def normalize(add: LocalAddition, tol_rank=DEFAULT.tol_rank) -> LocalAddition:
    """Post-compose with the inverse fiber derivative at zero.

    Returns sigma' = sigma . h with h(v) = (T_0 sigma|fiber)^(-1) v, which is
    normalized; the fiber domain is shrunk by a factor 0.9 to keep h^(-1)(U)
    inside the declared neighborhood.
    """
    m = add.manifold
    am = m.ambient_dim
    d = m.dim

    def alpha_matrix(x, chart):
        """Fiber derivative of sigma at 0 over chart coords x; dual-friendly."""
        p = chart.inv(list(x))
        cols = []
        for j in range(d):
            e = [0.0] * d
            e[j] = 1.0
            _, bj = ad.jvp(chart.inv, list(x), e)
            seeded = [Dual(pi, 0.0) for pi in p] + [Dual(0.0 * value(bi), bi)
                                                    for bi in bj]
            out = chart.fwd(add.sigma_fn(seeded))
            cols.append([o.ep if isinstance(o, Dual) else 0.0 for o in out])
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    # precheck invertibility at the chart centers reachable by sampling
    rng = np.random.default_rng(20240)
    for _ in range(8):
        amb = m.sample(rng)
        pt = m.point_from_ambient(amb)
        A = alpha_matrix(list(pt.coords), m.charts[pt.chart_id])
        s = np.linalg.svd([[value(c) for c in row] for row in A],
                          compute_uv=False)
        if numerical_ranks(s, tol_rank) < d:
            raise SingularNormalization(
                f"{add.name}: fiber derivative singular near {pt}")

    def h_fn(comps):
        p = list(comps[:am])
        v = list(comps[am:])
        pf = np.asarray([value(c) for c in p], dtype=float)
        cid = int(m.best_chart(pf))
        chart = m.charts[cid]
        x = chart.fwd(p)
        A = alpha_matrix(x, chart)
        _, w = ad.jvp(chart.fwd, p, v)
        eta = [row[0] for row in ad.unpack(
            linsolve(ad.pack(A), ad.pack([[c] for c in w])))]
        _, v2 = ad.jvp(chart.inv, x, eta)
        return list(p) + list(v2)

    def sigma_fn(comps):
        return add.sigma_fn(h_fn(comps))

    def domain(p_amb, v_amb):
        return add.domain_fn(np.asarray(p_amb, dtype=float),
                             np.asarray(v_amb, dtype=float) / 0.9)

    return LocalAddition(m, sigma_fn, domain, name=f"norm({add.name})")


def tangent_local_addition(add: LocalAddition) -> LocalAddition:
    """Lift a local addition on M to one on TM.

    The lift is the tangent map of sigma pre-composed with the canonical
    flip; its domain is the flip image of TU.
    """
    m = add.manifold
    tm = m.tangent_bundle()
    am = m.ambient_dim

    def sigma_fn(comps):
        # T(TM) ambient: ((p, v), (a, b)); flip to base (p, a), velocity (v, b)
        p = list(comps[:am])
        v = list(comps[am:2 * am])
        a = list(comps[2 * am:3 * am])
        b = list(comps[3 * am:])
        q, dq = ad.jvp(add.sigma_fn, p + a, v + b)
        return q + dq

    def domain(p_amb, v_amb):
        # flip image of TU: the base (p, a) must lie in U, with a the first
        # half of the velocity
        p_amb = np.asarray(p_amb, dtype=float)
        v_amb = np.asarray(v_amb, dtype=float)
        return add.domain_fn(p_amb[:am], v_amb[:am])

    return LocalAddition(tm, sigma_fn, domain, name=f"T({add.name})")
