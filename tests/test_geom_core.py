import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currentgpd import ad
from currentgpd.catalog import (Circle, Euclidean, RotationGroup, Sphere,
                                Torus, catalog_maps)
from currentgpd.errors import OutOfChart
from currentgpd.gridmaps import GridSpec
from currentgpd.groupoids import GROUPOIDS
from currentgpd.manifolds import (DiscreteManifold, ProductManifold,
                                  SecondTangent, SmoothMap, Tangent,
                                  canonical_flip, chart_count,
                                  component_major, map_jacobian,
                                  merge_components, second_tangent_projection,
                                  split_components, tangent_from_ambient,
                                  tangent_map)

from conftest import angle_of, close_to


# ---------------------------------------------------------------------------
# chart transitions
# ---------------------------------------------------------------------------

class TestTransition:
    def test_circle_chart_change(self):
        # closed form: for angles in (0, pi) both charts use the same value
        c = Circle()
        p = c.point_at_angle(0.5)
        q = c.point_from_ambient(p.ambient, chart_id=1)
        assert q.coords[0] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(q.ambient, p.ambient)

    def test_same_chart_is_identity(self):
        c = Circle()
        p = c.point_at_angle(-1.2)
        q = c.point_from_ambient(p.ambient, chart_id=p.chart_id)
        assert np.array_equal(q.coords, p.coords)

    def test_out_of_chart(self):
        c = Circle()
        p = c.point_at_angle(0.0)  # excluded from the (0, 2pi) chart
        with pytest.raises(OutOfChart):
            c.point_from_ambient(p.ambient, chart_id=1)

    def test_chart_roundtrip_all_catalog(self):
        rng = np.random.default_rng(0)
        for m in [Euclidean(3), Circle(), Sphere(), Torus(), RotationGroup()]:
            p = m.point_from_ambient(m.sample(rng, 25))
            back = m.point_from_coords(p.chart_id, p.coords)
            assert float(np.max(m.distance(back.ambient, p.ambient))) < 1e-9


# ---------------------------------------------------------------------------
# tangent maps
# ---------------------------------------------------------------------------

class TestTangentMap:
    def test_identity(self):
        c = Circle()
        f = SmoothMap(c, c, lambda comps: list(comps))
        v = Tangent(c.point_at_angle(0.3), np.array([1.7]))
        out = tangent_map(f, v, target_chart=v.base.chart_id)
        assert np.allclose(out.vel, v.vel)

    def test_circle_squaring(self):
        # in angle charts the map is theta -> 2 theta, so speeds double
        f = catalog_maps()["circle-square"]
        v = Tangent(f.source.point_at_angle(0.7), np.array([1.0]))
        out = tangent_map(f, v)
        assert angle_of(out.base) == pytest.approx(1.4, abs=1e-12)
        assert out.vel[0] == pytest.approx(2.0, abs=1e-12)

    def test_chain_rule(self):
        maps = catalog_maps()
        f, g = maps["circle-rotate"], maps["circle-square"]
        fg = SmoothMap(f.source, g.target, lambda c: g.fn(f.fn(c)))
        rng = np.random.default_rng(1)
        p = f.source.point_from_ambient(f.source.sample(rng, 50))
        v = Tangent(p, rng.normal(size=(50, 1)))
        lhs = tangent_map(fg, v)
        rhs = tangent_map(g, tangent_map(f, v))
        assert float(np.max(np.abs(lhs.vel - rhs.vel))) < 1e-6
        assert np.max(g.target.distance(lhs.base.ambient,
                                        rhs.base.ambient)) < 1e-9

    def test_chart_independence(self):
        # compute through both target charts; the embedding reconciles them
        f = catalog_maps()["circle-square"]
        rng = np.random.default_rng(2)
        for _ in range(30):
            th = rng.uniform(0.2, 1.2)  # image angle in both chart domains
            v = Tangent(f.source.point_at_angle(th), rng.normal(size=1))
            out0 = tangent_map(f, v, target_chart=0)
            out1 = tangent_map(f, v, target_chart=1)
            assert float(np.max(np.abs(out0.ambient_vel()
                                       - out1.ambient_vel()))) < 1e-9

    def test_ad_fd_agreement_all_catalog_maps(self):
        # one batched call per map on (5, 16) path nodes; each node checked
        # against finite differences of the representative in its own charts
        maps = dict(catalog_maps())
        for gname, make in GROUPOIDS.items():
            gpd = make()
            maps[f"{gname}/alpha"] = gpd.alpha
            maps[f"{gname}/anchor"] = gpd.anchor_map()
        rng = np.random.default_rng(3)
        params = GridSpec("circle", 16).params()
        most_pairs = 0
        for name, f in maps.items():
            paths = f.source.sample_path(params, rng, True, 5)
            J = map_jacobian(f, paths)
            assert J.shape == (5, 16, f.target.dim, f.source.dim), name
            p = f.source.point_from_ambient(paths.reshape(80, -1))
            cj = f.target.best_chart(f.apply_batch(p.ambient))
            Jfd = ad.fd_jacobian(f.local(p.chart_id, cj), list(p.coords.T),
                                 1e-5)
            J = J.reshape((80,) + J.shape[2:])
            scale = np.max(np.abs(J), axis=(1, 2), initial=1.0)
            err = np.max(np.abs(J - Jfd), axis=(1, 2), initial=0.0)
            assert np.all(err / scale < 1e-6), name
            pairs = set(zip(p.chart_id.tolist(), cj.tolist()))
            most_pairs = max(most_pairs, len(pairs))
        assert most_pairs >= 2


@pytest.mark.parametrize("m", [Circle(), Sphere(), RotationGroup(), Torus(),
                               Sphere().tangent_bundle()],
                         ids=lambda m: m.name)
def test_a_mixed_chart_stack_gives_each_row_its_lone_bits(m):
    """A stacked Point over several charts reads each row in its own chart:
    coords, ambient velocities, tangents and Jacobians of a map whose
    images change chart too are those of the row alone, bit for bit."""
    rng = np.random.default_rng(21)
    amb, xi = m.sample(rng, 40), rng.normal(size=(40, m.dim))
    f = SmoothMap(m, m, lambda c: [c[3 * (k % 3) + k // 3] for k in range(9)]
                  if isinstance(m, RotationGroup) else [-x for x in c])
    p = m.point_from_ambient(amb)
    assert min(len(np.unique(p.chart_id)),
               len(np.unique(m.best_chart(f.apply_batch(amb))))) >= 2
    vel = Tangent(p, xi).ambient_vel()
    back, J = tangent_from_ambient(p, vel), map_jacobian(f, amb)
    for i, q in enumerate(map(m.point_from_ambient, amb)):
        assert q.chart_id == p.chart_id[i]
        assert np.array_equal(p.coords[i], q.coords)
        assert np.array_equal(vel[i], Tangent(q, xi[i]).ambient_vel())
        assert np.array_equal(back.vel[i],
                              tangent_from_ambient(q, vel[i]).vel)
        assert np.array_equal(J[i], map_jacobian(f, amb[i]))


# ---------------------------------------------------------------------------
# second tangents and the flip
# ---------------------------------------------------------------------------

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
        # bundle projection equals the projected tangent of the flip, on
        # 50 stacked second tangents in both charts
        rng = np.random.default_rng(4)
        for m in [Circle(), Sphere(), Euclidean(2)]:
            tm = m.tangent_bundle()
            proj = SmoothMap(tm, m, lambda c, k=m.ambient_dim: list(c[:k]))
            p = m.point_from_ambient(m.sample(rng, 50))
            s = SecondTangent(m, p.chart_id, p.coords,
                              *rng.normal(size=(3, 50, m.dim)))
            fl = canonical_flip(s)
            base = tm.point_from_coords(
                fl.chart_id, np.concatenate([fl.x, fl.y], axis=-1))
            t = Tangent(base, np.concatenate([fl.z, fl.w], axis=-1))
            lhs = second_tangent_projection(s)
            rhs = tangent_map(proj, t, target_chart=s.chart_id)
            assert float(np.max(np.abs(lhs.vel - rhs.vel))) < 1e-12
            assert np.max(m.distance(lhs.base.ambient,
                                     rhs.base.ambient)) < 1e-12


class TestPointEquality:
    def test_ambient_equality_is_chart_independent(self):
        c = Circle()
        p = c.point_at_angle(2.0)
        q = c.point_from_ambient(p.ambient, chart_id=1)
        assert close_to(p, q)

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


# ---------------------------------------------------------------------------
# component-major batches
# ---------------------------------------------------------------------------

class TestComponentMajor:
    @staticmethod
    def manifold(amb):
        if amb == 81:
            return ProductManifold([RotationGroup()] * 9)
        if amb == 130:
            return ProductManifold([Circle()] * 65)
        return Euclidean(amb)

    def test_layout(self):
        a = np.random.default_rng(25).normal(size=(4, 6, 3))
        cm = component_major(a)
        assert np.array_equal(cm, a) and not cm.flags.c_contiguous
        comps = split_components(cm)
        assert all(c.flags.c_contiguous for c in comps)
        merged = merge_components(comps)
        assert np.array_equal(merged, a)
        assert np.moveaxis(merged, -1, 0).flags.c_contiguous

    @pytest.mark.parametrize("kind", ["circle", "interval"])
    def test_draws_are_component_major(self, kind):
        """Path draws, SO(3) draws and the arrows a fiber builds need no
        copy to become component-major."""
        def laid_out(a):
            return np.moveaxis(a, -1, 0).flags.c_contiguous

        rng = np.random.default_rng(26)
        grid = GridSpec(kind, 16)
        params, closed = grid.params(), grid.closed
        gpds = [make() for make in GROUPOIDS.values()]
        spaces = ([Euclidean(3), Circle(), Sphere(), RotationGroup(), Torus(),
                   DiscreteManifold(3)]
                  + [m for gpd in gpds for m in (gpd.arrows, gpd.base)])
        for n in (None, 5):
            assert all(laid_out(m.sample_path(params, rng, closed, n))
                       for m in spaces)
            assert laid_out(RotationGroup().sample(rng, n))
            for gpd in gpds:
                x = gpd.alpha_batch(gpd.arrows.sample(rng, 5 if n else 1))
                tgt = gpd.base.sample_path(params, rng, closed, n)
                assert laid_out(gpd.sample_with_beta(x, rng))
                assert laid_out(gpd.sample_arrow_path_with_beta(
                    tgt, params, rng, closed))

    @pytest.mark.parametrize("amb", list(range(1, 21)) + [81, 130])
    def test_distance_has_the_bits_of_numpy_sum(self, amb):
        m = self.manifold(amb)
        assert m.ambient_dim == amb
        rng = np.random.default_rng(amb)
        a, b = m.sample(rng, 400), m.sample(rng, 400)
        d = a - b
        # numpy's pairwise sum over a contiguous last axis; SO(3) draws are
        # component-major, where np.sum would add the components in turn
        d = np.ascontiguousarray(d)
        want = np.sqrt(np.sum(d * d, axis=-1))
        for x, y in ((a, b), (component_major(a), component_major(b))):
            assert np.array_equal(m.distance(x, y), want)
        paths = (a.reshape(20, 20, amb), b.reshape(20, 20, amb))
        assert np.array_equal(m.distance(*map(component_major, paths)),
                              want.reshape(20, 20))
        assert m.distance(a[0], b[0]) == want[0]
