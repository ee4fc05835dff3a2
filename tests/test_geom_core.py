import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currentgpd import ad
from currentgpd.catalog import (Circle, Euclidean, RotationGroup, Sphere,
                                Torus, catalog_maps)
from currentgpd.errors import NotDifferentiable, OutOfChart
from currentgpd.manifolds import (DiscreteManifold, ProductManifold,
                                  SecondTangent, SmoothMap, Tangent,
                                  canonical_flip, chart_count, identity_map,
                                  map_jacobian, second_tangent_map,
                                  second_tangent_projection,
                                  split_components, tangent_map,
                                  tangent_transition, transition)


def angle_of(p):
    return math.atan2(p.ambient[1], p.ambient[0])


# ---------------------------------------------------------------------------
# chart transitions
# ---------------------------------------------------------------------------

class TestTransition:
    def test_circle_chart_change(self):
        # closed form: for angles in (0, pi) both charts use the same value
        c = Circle()
        p = c.point_at_angle(0.5)
        q = transition(p, 1)
        assert q.coords[0] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(q.ambient, p.ambient)

    def test_same_chart_is_identity(self):
        c = Circle()
        p = c.point_at_angle(-1.2)
        q = transition(p, p.chart_id)
        assert np.array_equal(q.coords, p.coords)

    def test_out_of_chart(self):
        c = Circle()
        p = c.point_at_angle(0.0)  # excluded from the (0, 2pi) chart
        with pytest.raises(OutOfChart):
            transition(p, 1)

    def test_chart_roundtrip_all_catalog(self):
        rng = np.random.default_rng(0)
        for m in [Euclidean(3), Circle(), Sphere(), Torus(), RotationGroup()]:
            for _ in range(25):
                amb = m.sample(rng)
                p = m.point_from_ambient(amb)
                back = m.point_from_coords(p.chart_id, p.coords)
                assert float(m.distance(back.ambient, amb)) < 1e-9


# ---------------------------------------------------------------------------
# tangent maps
# ---------------------------------------------------------------------------

class TestTangentMap:
    def test_identity(self):
        c = Circle()
        f = identity_map(c)
        v = Tangent(c.point_at_angle(0.3), np.array([1.7]))
        out = tangent_map(f, v, target_chart=v.base.chart_id)
        assert np.allclose(out.vel, v.vel)

    def test_constant_map_kills_velocity(self):
        from currentgpd.manifolds import constant_map
        c = Circle()
        f = constant_map(c, c.point_at_angle(1.0))
        v = Tangent(c.point_at_angle(0.3), np.array([2.0]))
        out = tangent_map(f, v)
        assert np.allclose(out.vel, 0.0)
        assert angle_of(out.base) == pytest.approx(1.0)

    def test_circle_squaring(self):
        # in angle charts the map is theta -> 2 theta, so speeds double
        f = catalog_maps()["circle-square"]
        v = Tangent(f.source.point_at_angle(0.7), np.array([1.0]))
        out = tangent_map(f, v)
        assert angle_of(out.base) == pytest.approx(1.4, abs=1e-12)
        assert out.vel[0] == pytest.approx(2.0, abs=1e-12)

    def test_requires_declared_order(self):
        c = Circle()
        f = SmoothMap(c, c, lambda comps: list(comps), order=0)
        v = Tangent(c.point_at_angle(0.1), np.array([1.0]))
        with pytest.raises(NotDifferentiable):
            tangent_map(f, v)

    def test_chain_rule(self):
        maps = catalog_maps()
        f = maps["circle-rotate"]
        g = maps["circle-square"]
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = f.source.point_from_ambient(f.source.sample(rng))
            v = Tangent(p, rng.normal(size=1))
            lhs = tangent_map(f.then(g), v)
            rhs = tangent_map(g, tangent_map(f, v))
            assert float(np.max(np.abs(lhs.vel - rhs.vel))) < 1e-6
            assert lhs.base.close_to(rhs.base)

    def test_chart_independence(self):
        # compute through both target charts; transition must reconcile them
        f = catalog_maps()["circle-square"]
        rng = np.random.default_rng(2)
        for _ in range(30):
            th = rng.uniform(0.2, 1.2)  # image angle in both chart domains
            v = Tangent(f.source.point_at_angle(th), rng.normal(size=1))
            out0 = tangent_map(f, v, target_chart=0)
            out1 = tangent_map(f, v, target_chart=1)
            moved = tangent_transition(out0, 1)
            assert float(np.max(np.abs(moved.vel - out1.vel))) < 1e-9

    def test_ad_fd_agreement_all_catalog_maps(self):
        rng = np.random.default_rng(3)
        for name, f in catalog_maps().items():
            for _ in range(100):
                p = f.source.point_from_ambient(f.source.sample(rng))
                J, cj = map_jacobian(f, p)
                rep = f.local(p.chart_id, cj)
                Jfd = ad.fd_jacobian(rep, list(p.coords), 1e-5)
                scale = max(float(np.max(np.abs(J))), 1.0)
                assert float(np.max(np.abs(J - Jfd))) / scale < 1e-6, name


# ---------------------------------------------------------------------------
# second tangents and the flip
# ---------------------------------------------------------------------------

def scalar_map(fn, order=np.inf):
    line = Euclidean(1)
    return SmoothMap(line, line, lambda comps: [fn(comps[0])], order=order)


class TestSecondTangent:
    def test_identity(self):
        line = Euclidean(1)
        f = identity_map(line)
        s = SecondTangent(line, 0, np.array([0.3]), np.array([1.0]),
                          np.array([2.0]), np.array([-0.5]))
        out = second_tangent_map(f, s)
        assert out.tuple4() == pytest.approx(s.tuple4())

    def test_square_rule(self):
        # f(x) = x^2: d2f(x, y, z) = 2 y z, so (1,1,1,0) -> (1,2,2,2)
        f = scalar_map(lambda x: x * x)
        s = SecondTangent(Euclidean(1), 0, np.array([1.0]), np.array([1.0]),
                          np.array([1.0]), np.array([0.0]))
        out = second_tangent_map(f, s)
        got = np.concatenate(out.tuple4())
        assert got == pytest.approx([1.0, 2.0, 2.0, 2.0])

    def test_linear_rule(self):
        f = scalar_map(lambda x: 2.0 * x)
        s = SecondTangent(Euclidean(1), 0, np.array([0.4]), np.array([1.1]),
                          np.array([-0.2]), np.array([0.9]))
        out = second_tangent_map(f, s)
        got = np.concatenate(out.tuple4())
        assert got == pytest.approx([0.8, 2.2, -0.4, 1.8])

    def test_requires_c2(self):
        f = scalar_map(lambda x: x, order=1)
        s = SecondTangent(Euclidean(1), 0, np.array([0.0]), np.array([1.0]),
                          np.array([1.0]), np.array([0.0]))
        with pytest.raises(NotDifferentiable):
            second_tangent_map(f, s)

    def test_transforms_match_nested_fd(self):
        # the 4-tuple rule against second-order finite differences
        f = scalar_map(lambda x: ad.sin(x) * x)
        x0, y, z, w = 0.37, 1.3, -0.8, 0.25
        s = SecondTangent(Euclidean(1), 0, np.array([x0]), np.array([y]),
                          np.array([z]), np.array([w]))
        out = second_tangent_map(f, s)
        h = 1e-4
        fn = lambda x: math.sin(x) * x
        df = (fn(x0 + h) - fn(x0 - h)) / (2 * h)
        d2f = (fn(x0 + h) - 2 * fn(x0) + fn(x0 - h)) / (h * h)
        expected = [fn(x0), df * y, df * z, df * w + d2f * y * z]
        got = np.concatenate(out.tuple4())
        assert got == pytest.approx(expected, abs=1e-5)


class TestCanonicalFlip:
    def test_paper_value(self):
        line = Euclidean(1)
        s = SecondTangent(line, 0, np.array([0.3]), np.array([1.0]),
                          np.array([2.0]), np.array([-0.5]))
        out = canonical_flip(s)
        assert np.concatenate(out.tuple4()) == pytest.approx(
            [0.3, 2.0, 1.0, -0.5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8))
    def test_involution_exact(self, data):
        m = Euclidean(2)
        s = SecondTangent(m, 0, np.asarray(data[0:2]), np.asarray(data[2:4]),
                          np.asarray(data[4:6]), np.asarray(data[6:8]))
        ss = canonical_flip(canonical_flip(s))
        for a, b in zip(s.tuple4(), ss.tuple4()):
            assert np.array_equal(a, b)

    def test_projection_identity(self):
        # bundle projection equals the projected tangent of the flip
        rng = np.random.default_rng(4)
        for m in [Circle(), Sphere(), Euclidean(2)]:
            tm = m.tangent_bundle()
            proj = SmoothMap(tm, m, lambda c, k=m.ambient_dim: list(c[:k]))
            for _ in range(50):
                p = m.point_from_ambient(m.sample(rng))
                s = SecondTangent(m, p.chart_id, np.asarray(p.coords),
                                  rng.normal(size=m.dim),
                                  rng.normal(size=m.dim),
                                  rng.normal(size=m.dim))
                fl = canonical_flip(s)
                base = tm.point_from_coords(fl.chart_id,
                                            np.concatenate([fl.x, fl.y]))
                t = Tangent(base, np.concatenate([fl.z, fl.w]))
                lhs = second_tangent_projection(s)
                rhs = tangent_map(proj, t, target_chart=s.chart_id)
                assert float(np.max(np.abs(lhs.vel - rhs.vel))) < 1e-12
                assert lhs.base.close_to(rhs.base, 1e-12)


class TestPointEquality:
    def test_ambient_equality_is_chart_independent(self):
        c = Circle()
        p = c.point_at_angle(2.0)
        q = transition(p, 1)
        assert p.close_to(q)

    def test_immutability(self):
        c = Circle()
        p = c.point_at_angle(0.2)
        with pytest.raises(ValueError):
            p.ambient[0] = 5.0


# ---------------------------------------------------------------------------
# product charts
# ---------------------------------------------------------------------------

def combos_of(prod):
    return list(itertools.product(*[range(len(f.charts)) for f in prod.factors]))


def brute_best_chart(prod, amb):
    """Argmax over every product chart in ``itertools.product`` order."""
    comps = split_components(amb)
    margins = np.stack([np.asarray(prod._product_chart(c).margin(comps),
                                   dtype=float) for c in combos_of(prod)])
    best = np.argmax(margins, axis=0)
    if np.any(np.take_along_axis(margins, best[None], axis=0) <= 0.0):
        raise OutOfChart("no product chart contains the point")
    return best


class TestProductCharts:
    # 1, 2, 3 and 4 charts per factor, then a product where the circles tie
    PRODUCTS = {
        "1-2-3-4": lambda: ProductManifold(
            [Euclidean(1), Circle(), DiscreteManifold(3), RotationGroup()]),
        "circle-so3-circle": lambda: ProductManifold(
            [Circle(), RotationGroup(), Circle()]),
    }

    @staticmethod
    def points(prod, rng, n=60):
        amb = np.concatenate([f.sample(rng, n) for f in prod.factors], axis=-1)
        for i, f in enumerate(prod.factors):
            if isinstance(f, Circle):
                # at angle pi/2 both circle charts have margin pi/2 exactly
                amb[::3, prod.amb_offsets[i]:prod.amb_offsets[i + 1]] = [0.0, 1.0]
        return amb

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_best_chart_is_the_first_argmax(self, name):
        prod = self.PRODUCTS[name]()
        amb = self.points(prod, np.random.default_rng(21))
        want = brute_best_chart(prod, amb)
        assert np.array_equal(prod.best_chart(amb), want)
        for row, w in zip(amb, want):
            got = prod.best_chart(row)
            assert type(got) is int and got == int(w)

    def test_tied_circle_charts_pick_the_first(self):
        prod = ProductManifold([Circle(), Circle()])
        amb = np.asarray([0.0, 1.0, 0.0, 1.0])
        assert prod.best_chart(amb) == int(brute_best_chart(prod, amb)) == 0

    def test_point_in_no_chart(self):
        prod = self.PRODUCTS["1-2-3-4"]()
        amb = self.points(prod, np.random.default_rng(22), n=4)
        amb[2, prod.amb_offsets[2]] = 0.5  # halfway between two discrete points
        for pts in (amb, amb[2]):
            with pytest.raises(OutOfChart):
                brute_best_chart(prod, pts)
            with pytest.raises(OutOfChart):
                prod.best_chart(pts)

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_chart_ids_are_product_order(self, name):
        prod = self.PRODUCTS[name]()
        combos = combos_of(prod)
        assert chart_count(prod) == len(prod.charts) == len(combos)
        for i, combo in enumerate(combos):
            parts = [f.charts[k].name for f, k in zip(prod.factors, combo)]
            assert prod.charts[i].name == "*".join(parts)
            assert prod.charts[i] is prod.charts[i]
        with pytest.raises(IndexError):
            prod.charts[len(combos)]

    def test_power_ids_past_int64(self):
        prod = ProductManifold([Circle()] * 64)
        assert chart_count(prod) == chart_count(prod.tangent_bundle()) == 2 ** 64
        amb = prod.sample(np.random.default_rng(23), 6)
        amb[0, :2] = [-1.0, 0.0]  # angle pi: only the second chart of factor 0
        ids = prod.best_chart(amb)
        assert ids[0] >= 2 ** 63
        for row, cid in zip(amb, ids):
            one = prod.best_chart(row)
            assert type(one) is int and one == cid
            reach = min(max(c.margin(list(row[2 * i:2 * i + 2]))
                            for c in f.charts)
                        for i, f in enumerate(prod.factors))
            assert prod.charts[one].margin(list(row)) == reach
