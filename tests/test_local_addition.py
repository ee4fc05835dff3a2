import math

import numpy as np
import pytest
import scipy.linalg

from currentgpd.catalog import (Circle, Euclidean, RotationGroup, Sphere,
                                Torus)
from currentgpd.errors import (DomainViolation, NotInThetaImage,
                               SingularNormalization, Unsupported)
from currentgpd.localadd import (LocalAddition, fiber_derivative, normalize,
                                 riemannian_local_addition,
                                 tangent_local_addition)
from currentgpd.manifolds import Tangent, merge_components, split_components

from conftest import by_chart, inverse_rows, sigma_rows


CATALOG = [Euclidean(2), Circle(), Sphere(), Torus(), RotationGroup()]


def draws(m, rng, n, scale):
    """n points of m, in at least two charts where m has two, and ambient
    velocities of chart speed about scale."""
    amb = np.stack([m.sample(rng) for _ in range(n)])
    assert len(np.unique(m.best_chart(amb))) >= min(2, len(m.charts))
    vel = np.empty_like(amb)
    for rows, p in m.points_by_chart(amb):
        vel[rows] = Tangent(p, rng.normal(size=(len(rows), m.dim))
                            * scale).ambient_vel()
    return amb, vel


class TestRiemannian:
    def test_circle_geodesic(self):
        add = riemannian_local_addition(Circle())
        p = add.manifold.point_at_angle(0.0)
        q = add.sigma(p.ambient, Tangent(p, np.array([0.3])).ambient_vel())
        assert math.atan2(q[1], q[0]) == pytest.approx(0.3, abs=1e-14)

    def test_zero_tangent_fixes_point(self):
        rng = np.random.default_rng(0)
        for m in CATALOG:
            amb = np.stack([m.sample(rng) for _ in range(100)])
            q = riemannian_local_addition(m).sigma(amb, np.zeros_like(amb))
            assert float(np.max(m.distance(q, amb))) < 1e-12

    def test_injectivity_radius_enforced(self):
        c = Circle()
        add = riemannian_local_addition(c)
        p = c.point_at_angle(0.0)
        with pytest.raises(DomainViolation):
            add.sigma(p.ambient, Tangent(p, np.array([math.pi])).ambient_vel())

    def test_unsupported_manifold(self):
        from currentgpd.manifolds import ChartedManifold, Chart
        bare = ChartedManifold("bare", 1, 1, [Chart(
            "id", lambda c: c[0] * 0 + 1.0, lambda c: list(c), lambda c: list(c))])
        with pytest.raises(Unsupported):
            riemannian_local_addition(bare)

    def test_round_trip_all_catalog(self):
        rng = np.random.default_rng(1)
        for m in CATALOG:
            add = riemannian_local_addition(m)
            amb, vel = draws(m, rng, 100, 0.5)
            inside = add.domain_fn(amb, vel)
            amb, vel = amb[inside], vel[inside]
            back = inverse_rows(add, amb, sigma_rows(add, amb, vel))
            assert float(np.max(np.abs(back - vel))) < 1e-10

    def test_so3_against_matrix_exponential(self):
        g = RotationGroup()
        add = riemannian_local_addition(g)
        rng = np.random.default_rng(3)
        for _ in range(25):
            R = g.sample(rng).reshape(3, 3)
            xi = rng.normal(size=3) * 0.4
            hat = np.array([[0, -xi[2], xi[1]],
                            [xi[2], 0, -xi[0]],
                            [-xi[1], xi[0], 0]])
            expected = R @ scipy.linalg.expm(hat)
            q = add.sigma(R.reshape(9), (R @ hat).reshape(9))
            assert float(np.max(np.abs(q - expected.reshape(9)))) < 1e-12

    @pytest.mark.parametrize("m", [Circle(), RotationGroup()],
                             ids=lambda m: m.name)
    def test_is_the_left_translated_group_exponential(self, m):
        # sigma(g, v) = g . sigma(e, g^-1 v): on a group with a bi-invariant
        # metric the geodesic exponential is the Lie-group local addition
        add = riemannian_local_addition(m)
        rng = np.random.default_rng(13)
        g = m.sample(rng, 200)
        xi = rng.uniform(-1.0, 1.0, size=(200, m.dim))
        if m.dim == 1:
            hat = [0.0 * xi[:, 0], xi[:, 0]]
        else:
            x, y, z = xi.T
            hat = [0.0 * x, -z, y, z, 0.0 * x, -x, -y, x, 0.0 * x]
        v = merge_components(m.mul(split_components(g), hat))
        e = np.broadcast_to(m.identity, g.shape)
        g_inv_v = m.mul(m.invert(split_components(g)), split_components(v))
        at_e = add.sigma(e, merge_components(g_inv_v))
        lhs = add.sigma(g, v)
        rhs = merge_components(m.mul(split_components(g),
                                     split_components(at_e)))
        assert float(np.max(np.abs(lhs - rhs))) < 1e-12


def scaled_circle_addition(factor=2.0):
    c = Circle()
    base = riemannian_local_addition(c)
    return LocalAddition(
        c,
        lambda comps: base.sigma_fn(list(comps[:2])
                                    + [factor * x for x in comps[2:]]),
        lambda p, v: base.domain_fn(p, factor * v),
        name="scaled")


def fiber_rows(add, amb):
    """The fiber derivatives at the rows amb, one call per chart."""
    return by_chart(add.manifold, amb, lambda p: fiber_derivative(add, p))


def off_identity(add, amb):
    """Largest entry of D - I over the fiber derivatives at the rows amb."""
    return float(np.max(np.abs(fiber_rows(add, amb)
                               - np.eye(add.manifold.dim))))


class TestNormalize:
    def test_already_normalized_stays_identity(self):
        c = Circle()
        add = normalize(riemannian_local_addition(c))
        amb, _ = draws(c, np.random.default_rng(5), 20, 0.0)
        assert off_identity(add, amb) < 1e-6

    def test_scaled_input_gets_fixed(self):
        add = normalize(scaled_circle_addition())
        amb, _ = draws(add.manifold, np.random.default_rng(6), 100, 0.0)
        assert off_identity(add, amb) < 1e-6

    def test_idempotent(self):
        add = normalize(scaled_circle_addition())
        again = normalize(add)
        c = add.manifold
        amb, vel = draws(c, np.random.default_rng(7), 20, 0.3)
        a = sigma_rows(add, amb, vel)
        b = sigma_rows(again, amb, vel)
        assert float(np.max(c.distance(a, b))) < 1e-6

    def test_domain_is_where_sigma_is_injective(self):
        # sigma' = exp: the velocities 4 and 4 - 2 pi at angle 0 reach one
        # point, so at most one of them lies in the domain
        add = normalize(scaled_circle_addition(0.5))
        base = np.array([[1.0, 0.0], [1.0, 0.0]])
        vel = np.array([[0.0, 4.0], [0.0, 4.0 - 2.0 * math.pi]])
        q = merge_components(add.sigma_fn(split_components(base)
                                          + split_components(vel)))
        assert float(add.manifold.distance(q[0], q[1])) < 1e-12
        assert add.domain_fn(base, vel).tolist() == [False, True]

    def test_singular_fiber_derivative_raises(self):
        c = Circle()
        base = riemannian_local_addition(c)
        broken = LocalAddition(
            c,
            lambda comps: base.sigma_fn(list(comps[:2]) + [0.0 * x for x in comps[2:]]),
            base.domain_fn, name="collapsed")
        with pytest.raises(SingularNormalization):
            normalize(broken)

    def test_small_invertible_fiber_derivative_gets_normalized(self):
        # velocities scaled by 1e-3: the fiber derivative is about 1e-3 I,
        # invertible although its determinant is about 1e-9
        so3 = RotationGroup()
        base = riemannian_local_addition(so3)
        am = so3.ambient_dim
        slow = LocalAddition(
            so3,
            lambda comps: base.sigma_fn(list(comps[:am])
                                        + [1e-3 * v for v in comps[am:]]),
            base.domain_fn, name="slow")
        amb, _ = draws(so3, np.random.default_rng(12), 8, 0.0)
        assert np.all(np.abs(np.linalg.det(fiber_rows(slow, amb))) < 1e-8)
        assert off_identity(normalize(slow), amb) < 1e-6

    def test_unnormalized_group_chart_gets_normalized(self):
        # sigma(v) = g . psi(omega(v)) with psi(s) = e^{i(2s + s^3)}, a chart
        # diffeomorphism but not exp: its fiber derivative at zero is 2; the
        # circle's Maurer-Cartan form is omega(v) = g0 v1 - g1 v0
        c = Circle()
        from currentgpd import ad

        def sigma_fn(comps):
            g0, g1, v0, v1 = comps
            s = g0 * v1 - g1 * v0
            return c.mul([g0, g1], [ad.cos(2.0 * s + s * (s * s)),
                                    ad.sin(2.0 * s + s * (s * s))])

        add = LocalAddition(c, sigma_fn,
                            riemannian_local_addition(c).domain_fn, name="psi")
        amb, _ = draws(c, np.random.default_rng(8), 30, 0.0)
        assert np.all(np.abs(fiber_rows(add, amb) - 1.0) > 0.5)
        assert off_identity(normalize(add), amb) < 1e-6


class TestThetaInverse:
    def test_same_point_gives_zero(self):
        rng = np.random.default_rng(9)
        for m in CATALOG:
            add = riemannian_local_addition(m)
            p = m.point_from_ambient(m.sample(rng))
            t = add.theta_inverse(p, p.ambient)
            assert float(np.max(np.abs(t.vel))) < 1e-12 if m.dim else True

    def test_circle_log(self):
        c = Circle()
        add = riemannian_local_addition(c)
        t = add.theta_inverse(c.point_at_angle(0.0), c.point_at_angle(0.3).ambient)
        assert t.vel[0] == pytest.approx(0.3, abs=1e-14)

    def test_antipode_rejected(self):
        c = Circle()
        add = riemannian_local_addition(c)
        with pytest.raises(NotInThetaImage):
            add.theta_inverse(c.point_at_angle(0.0),
                              c.point_at_angle(math.pi).ambient)

    def test_newton_matches_closed_form(self):
        c = Circle()
        closed = riemannian_local_addition(c)
        newton = LocalAddition(c, closed.sigma_fn, closed.domain_fn)
        amb, vel = draws(c, np.random.default_rng(10), 25, 0.7)
        q = closed.sigma(amb, vel)
        a, b = inverse_rows(closed, amb, q), inverse_rows(newton, amb, q)
        assert float(np.max(np.abs(a - b))) < 1e-9

    @pytest.mark.parametrize("m", [Circle(), Sphere(), RotationGroup()],
                             ids=lambda m: m.name)
    def test_normalized_newton_matches_closed_form(self, m):
        # normalize solves a linear system inside the residual that Newton
        # differentiates, so the solve runs on duals with a direction axis
        closed = riemannian_local_addition(m)
        newton = normalize(closed)
        assert newton.closed_log is None
        amb, vel = draws(m, np.random.default_rng(12), 8, 0.3)
        q = sigma_rows(newton, amb, vel)
        a, b = inverse_rows(closed, amb, q), inverse_rows(newton, amb, q)
        assert float(np.max(np.abs(a - b))) < 1e-9


class TestTangentLift:
    def test_zero_tangent_of_tangent(self):
        rng = np.random.default_rng(11)
        for m in [Circle(), Euclidean(2), Sphere()]:
            add = tangent_local_addition(riemannian_local_addition(m))
            tm = m.tangent_bundle()
            amb = np.stack([tm.sample(rng) for _ in range(100)])
            out = add.sigma(amb, np.zeros_like(amb))
            assert float(np.max(tm.distance(out, amb))) < 1e-10

    def test_base_compatibility(self):
        # the foot of the lifted value is sigma of the flipped base part
        m = Circle()
        base_add = riemannian_local_addition(m)
        add = tangent_local_addition(base_add)
        am = m.ambient_dim
        amb, vel = draws(m.tangent_bundle(), np.random.default_rng(12), 50, 0.3)
        inside = add.domain_fn(amb, vel)
        out = sigma_rows(add, amb[inside], vel[inside])
        foot = base_add.sigma(amb[inside, :am], vel[inside, :am])
        assert float(np.max(m.distance(out[:, :am], foot))) < 1e-10

    def test_circle_lift_is_product_addition(self):
        # under TS^1 = S^1 x R the lift adds angles and speeds separately
        m = Circle()
        add = tangent_local_addition(riemannian_local_addition(m))
        theta, s = 0.2, 0.5
        a, b = 0.3, -0.1
        base = np.array([math.cos(theta), math.sin(theta),
                         -s * math.sin(theta), s * math.cos(theta)])
        # tangent of TS^1 whose flip has base velocity a and fiber change b
        da = np.array([-a * math.sin(theta), a * math.cos(theta)])
        db = np.array([-s * a * math.cos(theta) - b * math.sin(theta),
                       -s * a * math.sin(theta) + b * math.cos(theta)])
        out = add.sigma(base, np.concatenate([da, db]))
        new_theta = math.atan2(out[1], out[0])
        new_speed = (-out[2] * math.sin(new_theta)
                     + out[3] * math.cos(new_theta))
        assert new_theta == pytest.approx(theta + a, abs=1e-10)
        assert new_speed == pytest.approx(s + b, abs=1e-10)

    def test_round_trip_via_newton(self):
        m = Circle()
        add = tangent_local_addition(riemannian_local_addition(m))
        amb, vel = draws(m.tangent_bundle(), np.random.default_rng(13), 20, 0.2)
        inside = add.domain_fn(amb, vel)
        amb, vel = amb[inside], vel[inside]
        back = inverse_rows(add, amb, add.sigma(amb, vel))
        assert float(np.max(np.abs(back - vel))) < 1e-9
