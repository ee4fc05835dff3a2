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
from currentgpd.manifolds import (Tangent, merge_components, split_components,
                                  tangent_from_ambient)

from conftest import angle_of


CATALOG = [Euclidean(2), Circle(), Sphere(), Torus(), RotationGroup()]


class TestRiemannian:
    def test_circle_geodesic(self):
        add = riemannian_local_addition(Circle())
        p = add.manifold.point_at_angle(0.0)
        q = add.sigma(Tangent(p, np.array([0.3])))
        assert angle_of(q) == pytest.approx(0.3, abs=1e-14)

    def test_zero_tangent_fixes_point(self):
        rng = np.random.default_rng(0)
        for m in CATALOG:
            add = riemannian_local_addition(m)
            for _ in range(100):
                p = m.point_from_ambient(m.sample(rng))
                q = add.sigma(Tangent(p, np.zeros(m.dim)))
                assert float(m.distance(q.ambient, p.ambient)) < 1e-12

    def test_injectivity_radius_enforced(self):
        c = Circle()
        add = riemannian_local_addition(c)
        p = c.point_at_angle(0.0)
        with pytest.raises(DomainViolation):
            add.sigma(Tangent(p, np.array([math.pi])))

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
            for _ in range(100):
                p = m.point_from_ambient(m.sample(rng))
                xi = rng.normal(size=m.dim) * 0.5
                t = Tangent(p, xi)
                if not add.contains(t):
                    continue
                q = add.sigma(t)
                back = add.theta_inverse(p, q)
                assert float(np.max(np.abs(back.vel - xi))) < 1e-10

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
            v_amb = (R @ hat).reshape(9)
            t = tangent_from_ambient(g, R.reshape(9), v_amb)
            q = add.sigma(t)
            assert float(np.max(np.abs(q.ambient - expected.reshape(9)))) < 1e-12

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
        at_e = add.sigma_batch(e, merge_components(g_inv_v))
        lhs = add.sigma_batch(g, v)
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
        lambda p, v: base.domain_fn(p, np.asarray(v) * factor),
        name="scaled")


class TestNormalize:
    def test_already_normalized_stays_identity(self):
        c = Circle()
        add = normalize(riemannian_local_addition(c))
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = c.point_from_ambient(c.sample(rng))
            D = fiber_derivative(add, p)
            assert float(np.max(np.abs(D - np.eye(1)))) < 1e-6

    def test_scaled_input_gets_fixed(self):
        add = normalize(scaled_circle_addition())
        c = add.manifold
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = c.point_from_ambient(c.sample(rng))
            D = fiber_derivative(add, p)
            assert float(np.max(np.abs(D - np.eye(1)))) < 1e-6

    def test_idempotent(self):
        add = normalize(scaled_circle_addition())
        again = normalize(add)
        c = add.manifold
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = c.point_from_ambient(c.sample(rng))
            xi = rng.normal(size=1) * 0.3
            a = add.sigma(Tangent(p, xi))
            b = again.sigma(Tangent(p, xi))
            assert float(c.distance(a.ambient, b.ambient)) < 1e-6

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
        fixed = normalize(slow)
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = so3.point_from_ambient(so3.sample(rng))
            D = fiber_derivative(slow, p)
            assert abs(np.linalg.det(D)) < 1e-8
            D = fiber_derivative(fixed, p)
            assert float(np.max(np.abs(D - np.eye(3)))) < 1e-6

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
        fixed = normalize(add)
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = c.point_from_ambient(c.sample(rng))
            D = fiber_derivative(add, p)
            assert float(np.max(np.abs(D - np.eye(1)))) > 0.5
            D = fiber_derivative(fixed, p)
            assert float(np.max(np.abs(D - np.eye(1)))) < 1e-6


class TestThetaInverse:
    def test_same_point_gives_zero(self):
        rng = np.random.default_rng(9)
        for m in CATALOG:
            add = riemannian_local_addition(m)
            p = m.point_from_ambient(m.sample(rng))
            t = add.theta_inverse(p, p)
            assert float(np.max(np.abs(t.vel))) < 1e-12 if m.dim else True

    def test_circle_log(self):
        c = Circle()
        add = riemannian_local_addition(c)
        t = add.theta_inverse(c.point_at_angle(0.0), c.point_at_angle(0.3))
        assert t.vel[0] == pytest.approx(0.3, abs=1e-14)

    def test_antipode_rejected(self):
        c = Circle()
        add = riemannian_local_addition(c)
        with pytest.raises(NotInThetaImage):
            add.theta_inverse(c.point_at_angle(0.0), c.point_at_angle(math.pi))

    def test_newton_matches_closed_form(self):
        c = Circle()
        closed = riemannian_local_addition(c)
        newton = LocalAddition(c, closed.sigma_fn, closed.domain_fn)
        rng = np.random.default_rng(10)
        for _ in range(25):
            p = c.point_from_ambient(c.sample(rng))
            xi = rng.normal(size=1) * 0.7
            q = closed.sigma(Tangent(p, xi))
            a = closed.theta_inverse(p, q)
            b = newton.theta_inverse(p, q)
            assert float(np.max(np.abs(a.vel - b.vel))) < 1e-9

    @pytest.mark.parametrize("m", [Circle(), Sphere()], ids=["circle", "sphere"])
    def test_normalized_newton_matches_closed_form(self, m):
        # normalize solves a linear system inside the residual that Newton
        # differentiates, so the solve runs on duals with a direction axis
        closed = riemannian_local_addition(m)
        newton = normalize(closed)
        assert newton.closed_log is None
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = m.point_from_ambient(m.sample(rng))
            xi = rng.normal(size=m.dim) * 0.3
            q = closed.sigma(Tangent(p, xi))
            a = closed.theta_inverse(p, q)
            b = newton.theta_inverse(p, q)
            assert float(np.max(np.abs(a.vel - b.vel))) < 1e-9


class TestTangentLift:
    def test_zero_tangent_of_tangent(self):
        rng = np.random.default_rng(11)
        for m in [Circle(), Euclidean(2), Sphere()]:
            add = tangent_local_addition(riemannian_local_addition(m))
            tm = m.tangent_bundle()
            for _ in range(100):
                v = tm.point_from_ambient(tm.sample(rng))
                out = add.sigma(Tangent(v, np.zeros(tm.dim)))
                assert float(tm.distance(out.ambient, v.ambient)) < 1e-10

    def test_base_compatibility(self):
        # the foot of the lifted value is sigma of the flipped base part
        m = Circle()
        base_add = riemannian_local_addition(m)
        add = tangent_local_addition(base_add)
        tm = m.tangent_bundle()
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = tm.point_from_ambient(tm.sample(rng))
            w = rng.normal(size=tm.dim) * 0.3
            t = Tangent(v, w)
            if not add.contains(t):
                continue
            out = add.sigma(t)
            am = m.ambient_dim
            a_part = t.ambient_vel()[:am]
            foot = base_add.sigma_batch(v.ambient[:am], a_part)
            assert float(m.distance(out.ambient[:am], foot)) < 1e-10

    def test_circle_lift_is_product_addition(self):
        # under TS^1 = S^1 x R the lift adds angles and speeds separately
        m = Circle()
        add = tangent_local_addition(riemannian_local_addition(m))
        tm = m.tangent_bundle()
        theta, s = 0.2, 0.5
        a, b = 0.3, -0.1
        base = tm.point_from_ambient(np.array(
            [math.cos(theta), math.sin(theta),
             -s * math.sin(theta), s * math.cos(theta)]))
        # tangent of TS^1 whose flip has base velocity a and fiber change b
        da = np.array([-a * math.sin(theta), a * math.cos(theta)])
        db = (np.array([-(s + 0) * math.cos(theta) * a,
                        -(s + 0) * math.sin(theta) * a])
              + np.array([-b * math.sin(theta), b * math.cos(theta)]))
        w = tangent_from_ambient(tm, base.ambient, np.concatenate([da, db]))
        out = add.sigma(w)
        new_theta = math.atan2(out.ambient[1], out.ambient[0])
        new_speed = (-out.ambient[2] * math.sin(new_theta)
                     + out.ambient[3] * math.cos(new_theta))
        assert new_theta == pytest.approx(theta + a, abs=1e-10)
        assert new_speed == pytest.approx(s + b, abs=1e-10)

    def test_round_trip_via_newton(self):
        m = Circle()
        add = tangent_local_addition(riemannian_local_addition(m))
        tm = m.tangent_bundle()
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = tm.point_from_ambient(tm.sample(rng))
            w = rng.normal(size=tm.dim) * 0.2
            t = Tangent(v, w)
            if not add.contains(t):
                continue
            q = add.sigma(t)
            back = add.theta_inverse(v, q)
            assert float(np.max(np.abs(back.vel - w))) < 1e-9
