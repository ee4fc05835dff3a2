"""Local additions: exponential-style maps from tangent neighborhoods.

A local addition is a smooth map ``sigma`` from a neighborhood U of the zero
section of TM to M with sigma(0_p) = p such that (projection, sigma) is a
diffeomorphism onto a neighborhood of the diagonal.  Constructions here:
closed-form geodesic exponentials for catalog manifolds, the group-translation
construction for Lie groups, a normalization pass that makes the fiber
derivative at zero the identity, and the lift of a local addition to TM.
"""

from __future__ import annotations

import numpy as np

from . import ad
from .ad import Dual, value
from .errors import (DomainViolation, NotInThetaImage, SingularNormalization,
                     Unsupported)
from .linalg import linsolve, newton
from .manifolds import (ChartedManifold, DiscreteManifold, Point,
                        ProductManifold, Tangent, merge_components,
                        split_components, tangent_from_ambient)
from .tolerances import DEFAULT


class LocalAddition:
    """The pair (U, sigma) with theta = (projection, sigma)."""

    def __init__(self, manifold, sigma_fn, domain_fn, normalized=False,
                 closed_log=None, fiber_radius=np.inf, name="sigma"):
        self.manifold = manifold
        self.sigma_fn = sigma_fn              # TM-ambient comps -> M-ambient comps
        self.domain_fn = domain_fn            # (p_amb, v_amb float arrays) -> bool
        self.normalized = normalized
        self.closed_log = closed_log          # (p comps, q comps) -> v_amb comps
        self.fiber_radius = fiber_radius
        self.name = name

    # -- evaluation ---------------------------------------------------------
    def contains(self, t: Tangent) -> bool:
        return bool(self.domain_fn(t.base.ambient, t.ambient_vel()))

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

    def theta(self, t: Tangent):
        return t.base, self.sigma(t)

    # -- inversion ------------------------------------------------------------
    def theta_inverse(self, p: Point, q: Point, tol=DEFAULT.tol_theta,
                      max_iter=50) -> Tangent:
        m = self.manifold
        if self.closed_log is not None:
            v = merge_components(self.closed_log(list(p.ambient), list(q.ambient)))
            if not self.domain_fn(p.ambient, v):
                raise NotInThetaImage(f"{self.name}: log outside domain U")
            t = tangent_from_ambient(m, p.ambient, v, p.chart_id)
            res = float(m.distance(self.sigma_batch(p.ambient, v), q.ambient))
            if res > tol:
                raise NotInThetaImage(f"{self.name}: closed-form residual {res:.2e}")
            return t
        chart = m.charts[p.chart_id]
        x = list(p.coords)
        qc = m.charts[q.chart_id]
        q_target = [float(c) for c in q.coords]

        def residual(w):
            _, v = ad.jvp(chart.inv, x, w)
            out = self.sigma_fn(list(chart.inv(x)) + list(v))
            yc = qc.fwd(out)
            return [a - b for a, b in zip(yc, q_target)]

        w = newton(residual, [0.0] * m.dim, tol, max_iter, 1e6)
        if w is None:
            raise NotInThetaImage(f"{self.name}: Newton did not converge")
        _, v = ad.jvp(chart.inv, x, w)
        v = np.asarray([value(c) for c in v], dtype=float)
        if not self.domain_fn(p.ambient, v):
            raise NotInThetaImage(f"{self.name}: Newton left domain U")
        return Tangent(p, np.asarray(w, dtype=float))


def _radius_domain(manifold, radius):
    def domain(p_amb, v_amb):
        return manifold.speed(list(np.asarray(p_amb, dtype=float)),
                              list(np.asarray(v_amb, dtype=float))) < radius

    return domain


def riemannian_local_addition(m: ChartedManifold) -> LocalAddition:
    """Closed-form geodesic exponential restricted to the injectivity ball."""
    if isinstance(m, DiscreteManifold):
        return _discrete_local_addition(m)
    if isinstance(m, ProductManifold):
        return product_local_addition(
            m, [riemannian_local_addition(f) for f in m.factors])
    if not hasattr(m, "exp_amb"):
        raise Unsupported(f"no closed-form exponential for {m.name}")
    am = m.ambient_dim
    radius = m.injectivity_radius

    def sigma_fn(comps):
        return m.exp_amb(list(comps[:am]), list(comps[am:]))

    def closed_log(p, q):
        return m.log_amb(p, q)

    return LocalAddition(m, sigma_fn, _radius_domain(m, radius),
                         normalized=True, closed_log=closed_log,
                         fiber_radius=radius, name=f"exp_{m.name}")


def _discrete_local_addition(m: DiscreteManifold) -> LocalAddition:
    def sigma_fn(comps):
        return [comps[0]]

    def domain(p_amb, v_amb):
        return abs(float(np.asarray(v_amb).reshape(-1)[0])) < 0.5

    def closed_log(p, q):
        if abs(p[0] - q[0]) > 0.25:
            raise NotInThetaImage("distinct discrete elements")
        return [0.0]

    return LocalAddition(m, sigma_fn, domain, normalized=True,
                         closed_log=closed_log, fiber_radius=0.5,
                         name=f"triv_{m.name}")


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

    return LocalAddition(pm, sigma_fn, domain,
                         normalized=all(a.normalized for a in factor_adds),
                         closed_log=closed,
                         fiber_radius=min(a.fiber_radius for a in factor_adds),
                         name=f"prod({','.join(a.name for a in factor_adds)})")


class LieGroupOps:
    """Descriptor of a catalog Lie group acting on its own manifold."""

    def __init__(self, manifold, mul, invert, exp_chart, log_chart, omega,
                 algebra_dim, name):
        self.manifold = manifold
        self.mul = mul
        self.invert = invert
        self.exp_chart = exp_chart
        self.log_chart = log_chart
        self.omega = omega          # left Maurer-Cartan: (g comps, v comps) -> algebra coords
        self.algebra_dim = algebra_dim
        self.name = name


def circle_group(circle) -> LieGroupOps:
    def omega(g, v):
        return [g[0] * v[1] - g[1] * v[0]]

    return LieGroupOps(circle, circle.mul, circle.invert, circle.exp_chart,
                       circle.log_chart, omega, 1, "circle-group")


def so3_group(so3) -> LieGroupOps:
    from .catalog import _mat9_T, _mat9_mul

    def omega(g, v):
        s = _mat9_mul(_mat9_T(list(g)), list(v))
        return [(s[7] - s[5]) / 2.0, (s[2] - s[6]) / 2.0, (s[3] - s[1]) / 2.0]

    ops = LieGroupOps(so3, so3.mul, so3.invert, so3.exp_chart, so3.log_chart,
                      omega, 3, "so3-group")
    # matrix commutator of hat matrices, in rotation-vector coordinates
    ops.commutator = lambda xi, eta: np.cross(xi, eta)
    return ops


def translation_group(eucl) -> LieGroupOps:
    n = eucl.dim
    return LieGroupOps(
        eucl,
        lambda a, b: [x + y for x, y in zip(a, b)],
        lambda a: [-x for x in a],
        lambda xi: list(xi),
        lambda a: list(a),
        lambda g, v: list(v),
        n,
        f"translation{n}",
    )


def lie_group_local_addition(group: LieGroupOps, psi=None) -> LocalAddition:
    """sigma(v) = g . psi(omega(v)) with g the foot point of v.

    With psi the group exponential chart the result is normalized; a custom
    chart diffeomorphism psi (with psi(0) = identity) gives an unnormalized
    local addition, useful for exercising the normalization pass.
    """
    m = group.manifold
    if not hasattr(m, "speed"):
        raise Unsupported(f"{m.name} is not a catalog group manifold")
    am = m.ambient_dim
    psi_fn = psi or group.exp_chart
    normalized = psi is None
    radius = m.injectivity_radius

    def sigma_fn(comps):
        g = list(comps[:am])
        v = list(comps[am:])
        return group.mul(g, psi_fn(group.omega(g, v)))

    closed = None
    if psi is None and hasattr(m, "log_amb"):
        def closed(p, q):
            return m.log_amb(list(p), list(q))

    return LocalAddition(m, sigma_fn, _radius_domain(m, radius),
                         normalized=normalized, closed_log=closed,
                         fiber_radius=radius, name=f"grp_{group.name}")


def fiber_derivative(add: LocalAddition, p: Point, h=DEFAULT.h_fd):
    """Finite-difference derivative of sigma|_(T_pM) at 0_p, in chart coords.

    Central differences, independent of the AD path; the normalization
    checks are defined against this matrix.
    """
    m = add.manifold
    chart = m.charts[p.chart_id]
    d = m.dim
    out = np.zeros((d, d))
    for j in range(d):
        e = [0.0] * d
        e[j] = h
        _, v = ad.jvp(chart.inv, list(p.coords), e)
        vp = np.asarray([value(c) for c in v], dtype=float)
        qp = add.sigma_batch(p.ambient, vp)
        qm = add.sigma_batch(p.ambient, -vp)
        cp = merge_components(chart.fwd(split_components(qp)))
        cm = merge_components(chart.fwd(split_components(qm)))
        out[:, j] = (cp - cm) / (2.0 * h)
    return out


def normalize(add: LocalAddition, shrink=0.9,
              tol_rank=DEFAULT.tol_rank) -> LocalAddition:
    """Post-compose with the inverse fiber derivative at zero.

    Returns sigma' = sigma . h with h(v) = (T_0 sigma|fiber)^(-1) v, which is
    normalized; the fiber domain is shrunk by `shrink` to keep h^(-1)(U)
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
        Af = np.asarray([[value(c) for c in row] for row in A])
        scale = max(np.abs(Af).max(), 1.0)
        if abs(np.linalg.det(Af)) < tol_rank * scale:
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
        eta, = linsolve(A, [list(w)])
        _, v2 = ad.jvp(chart.inv, x, eta)
        return list(p) + list(v2)

    def sigma_fn(comps):
        return add.sigma_fn(h_fn(comps))

    def domain(p_amb, v_amb):
        return add.domain_fn(np.asarray(p_amb, dtype=float),
                             np.asarray(v_amb, dtype=float) / max(shrink, 1e-9))

    return LocalAddition(m, sigma_fn, domain, normalized=True,
                         closed_log=None,
                         fiber_radius=add.fiber_radius * shrink,
                         name=f"norm({add.name})")


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
        base = p + a
        velo = v + b
        seeded = [Dual(x, dx) for x, dx in zip(base, velo)]
        out = add.sigma_fn(seeded)
        q = [o.re if isinstance(o, Dual) else o for o in out]
        dq = [o.ep if isinstance(o, Dual) else 0.0 * value(o) for o in out]
        return q + dq

    def domain(p_amb, v_amb):
        # flip image of TU: the base (p, a) must lie in U, with a the first
        # half of the velocity
        p_amb = np.asarray(p_amb, dtype=float)
        v_amb = np.asarray(v_amb, dtype=float)
        return add.domain_fn(p_amb[:am], v_amb[:am])

    return LocalAddition(tm, sigma_fn, domain, normalized=False,
                         closed_log=None, fiber_radius=add.fiber_radius,
                         name=f"T({add.name})")
