"""Local additions: exponential-style maps from tangent neighborhoods.

A local addition is a smooth map ``sigma`` from a neighborhood U of the zero
section of TM to M with sigma(0_p) = p such that (projection, sigma) is a
diffeomorphism onto a neighborhood of the diagonal.  The chart of the
mapping space at a grid map f is phi_f(tau) = sigma(tau): ``sigma`` applied
to the rows of f and of a section tau over it.

Everything here works on stacked ambient rows: a base point, a velocity or
a value is an (..., m) array, and one call evaluates all rows.  Each row
gets the bits it gets alone, so the chart maps that read a row in its best
chart gather the rows of each chart (:func:`manifolds.node_chart`).
Constructions: closed-form geodesic exponentials for catalog manifolds, a
normalization that makes the fiber derivative at zero the identity, and
the lift of a local addition to TM.  The catalog Lie groups carry
bi-invariant metrics, so on them the geodesic exponential is also the
left-translated group exponential.
"""

from __future__ import annotations

import numpy as np

from . import ad
from .ad import Dual, value
from .errors import (DomainViolation, NotInThetaImage, SingularNormalization,
                     Unsupported)
from .linalg import linsolve, newton, numerical_ranks
from .manifolds import (ChartedManifold, Point, ProductManifold, Tangent,
                        merge_components, node_chart, split_components,
                        tangent_from_ambient)
from .tolerances import DEFAULT


class LocalAddition:
    """The pair (U, sigma) with theta = (projection, sigma), on rows.

    ``sigma_fn`` maps the ambient components of (p, v) to those of
    sigma(v); ``domain_fn`` maps (..., m) rows p and v to one bool per row,
    whether v lies in U; ``closed_log`` maps the components of p and q to
    those of the velocity that sigma takes to q, where a closed form exists.
    """

    def __init__(self, manifold, sigma_fn, domain_fn, closed_log=None,
                 name="sigma"):
        self.manifold = manifold
        self.sigma_fn = sigma_fn
        self.domain_fn = domain_fn
        self.closed_log = closed_log
        self.name = name

    def sigma(self, base_amb, vel_amb):
        """sigma of (..., m) rows of points and velocities, as (..., m) rows.

        Raises DomainViolation if a row lies outside U.
        """
        base_amb = np.asarray(base_amb, dtype=float)
        vel_amb = np.asarray(vel_amb, dtype=float)
        if not np.all(self.domain_fn(base_amb, vel_amb)):
            raise DomainViolation(f"{self.name}: tangent outside domain U")
        return merge_components(self.sigma_fn(split_components(base_amb)
                                              + split_components(vel_amb)))

    def theta_inverse(self, p: Point, q_amb, tol=DEFAULT.tol_theta) -> Tangent:
        """The tangents at p that sigma maps to the (..., m) rows q_amb.

        p is a stacked Point of one chart.  The closed-form log runs once
        over all rows and must meet each q within tol; without one, each
        row gets its own Newton solve in p's chart, against q read in its
        best chart.  Raises NotInThetaImage if a row's tangent misses its q
        or leaves U.
        """
        m = self.manifold
        q_amb = np.asarray(q_amb, dtype=float)
        if self.closed_log is not None:
            v = merge_components(self.closed_log(split_components(p.ambient),
                                                 split_components(q_amb)))
            t = tangent_from_ambient(m, p.ambient, v, p.chart_id)
        else:
            chart = m.charts[p.chart_id]
            rows = []
            for x, q in zip(np.reshape(p.coords, (-1, m.dim)).tolist(),
                            np.reshape(q_amb, (-1, m.ambient_dim))):
                qc = m.charts[m.best_chart(q)]
                q_target = qc.fwd(split_components(q))

                def residual(w):
                    _, v = ad.jvp(chart.inv, x, w)
                    yc = qc.fwd(self.sigma_fn(list(chart.inv(x)) + list(v)))
                    return [a - b for a, b in zip(yc, q_target)]

                w = newton(residual, [0.0] * m.dim, tol, 50, 1e6)
                if w is None:
                    raise NotInThetaImage(f"{self.name}: Newton did not converge")
                rows.append(w)
            t = Tangent(p, np.reshape(rows, p.coords.shape))
            v = t.ambient_vel()
        if not np.all(self.domain_fn(p.ambient, v)):
            raise NotInThetaImage(f"{self.name}: tangent outside domain U")
        if self.closed_log is not None:
            res = m.distance(self.sigma(p.ambient, v), q_amb)
            if np.any(res > tol):
                raise NotInThetaImage(
                    f"{self.name}: closed-form residual {np.max(res):.2e}")
        return t


def _radius_domain(manifold, radius):
    def domain(p_amb, v_amb):
        return manifold.speed(p_amb, v_amb) < radius

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
        return np.logical_and.reduce([
            add.domain_fn(p_amb[..., offs[i]:offs[i + 1]],
                          v_amb[..., offs[i]:offs[i + 1]])
            for i, add in enumerate(factor_adds)])

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
    this matrix.  A stacked p of one chart gives a (..., d, d) stack.
    """
    m = add.manifold
    chart = m.charts[p.chart_id]
    x = split_components(p.coords)

    def rep(w):
        _, v = ad.jvp(chart.inv, x, w)
        return chart.fwd(split_components(add.sigma(p.ambient,
                                                    merge_components(v))))

    return ad.fd_jacobian(rep, [0.0] * m.dim, h)


def normalize(add: LocalAddition, tol_rank=DEFAULT.tol_rank) -> LocalAddition:
    """Post-compose with the inverse fiber derivative at zero.

    Returns sigma' = sigma . h with h(v) = (T_0 sigma|fiber)^(-1) v, which is
    normalized; its domain is the set of v with h(v) in U, on which sigma'
    is as injective as sigma.  h reads each row in its best chart
    (:func:`manifolds.node_chart`), so the rows of sigma' and of its domain
    lie along one axis: (n, m) rows, or one (m,) row.
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

    def h_fn(comps):
        p = list(comps[:am])
        v = list(comps[am:])
        chart = node_chart(m, m.best_chart(merge_components(p)))
        x = chart.fwd(p)
        A = alpha_matrix(x, chart)
        _, w = ad.jvp(chart.fwd, p, v)
        eta = [row[0] for row in ad.unpack(
            linsolve(ad.pack(A), ad.pack([[c] for c in w])))]
        _, v2 = ad.jvp(chart.inv, x, eta)
        return p + list(v2)

    # precheck invertibility at the chart centers reachable by sampling
    rng = np.random.default_rng(20240)
    amb = np.stack([m.sample(rng) for _ in range(8)])
    chart = node_chart(m, m.best_chart(amb))
    A = ad.pack(alpha_matrix(chart.fwd(split_components(amb)), chart))
    singular = numerical_ranks(np.linalg.svd(A, compute_uv=False),
                               tol_rank) < d
    if np.any(singular):
        raise SingularNormalization(f"{add.name}: fiber derivative singular "
                                    f"near {amb[np.argmax(singular)]}")

    def sigma_fn(comps):
        return add.sigma_fn(h_fn(comps))

    def domain(p_amb, v_amb):
        comps = h_fn(split_components(p_amb) + split_components(v_amb))
        return add.domain_fn(p_amb, merge_components(comps[am:]))

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
        return add.domain_fn(p_amb[..., :am], v_amb[..., :am])

    return LocalAddition(tm, sigma_fn, domain, name=f"T({add.name})")
