import csv
import itertools
import math

import numpy as np
import pytest

from currentgpd.ad import fd_jacobian
from currentgpd.catalog import (Circle, Euclidean, RotationGroup, Sphere,
                                Torus, catalog_maps, exp_cover)
from currentgpd.errors import (BranchAmbiguity, CoherenceLost,
                               DomainViolation, NotInThetaImage,
                               OutsideNeighborhood, Unsupported)
from currentgpd.gridmaps import (GridMap, GridSection, GridSpec,
                                 circle_winding_loop, classify_pushforward,
                                 constant_grid_map, degree, gridmap_to_csv,
                                 local_diffeo_inverse, pushforward,
                                 pushforward_tangent, random_chart_coeffs,
                                 random_grid_map, section_from_chart_coeffs,
                                 seminorm_distance)
from currentgpd.groupoids import GROUPOIDS
from currentgpd.localadd import riemannian_local_addition
from currentgpd.manifolds import (DiscreteManifold, SmoothMap, Tangent,
                                  tangent_from_ambient, tangent_map)

from conftest import inverse_rows, sigma_rows


CIRCLE = Circle()
GRID = GridSpec("circle", 64, ell=1)
MAPS = catalog_maps()


def unwrap_winding_oracle(loop: GridMap) -> int:
    # brute-force winding via numpy's phase unwrapping, independent of degree()
    th = np.arctan2(loop.ambient[:, 1], loop.ambient[:, 0])
    th = np.unwrap(np.concatenate([th, th[:1]]))
    return int(round((th[-1] - th[0]) / (2 * math.pi)))


class TestGridMap:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec("circle", 4)
        with pytest.raises(ValueError):
            GridSpec("segment", 16)
        with pytest.raises(ValueError):
            GridSpec("interval", 16, ell=3)

    def test_coherence_enforced(self):
        amb = CIRCLE.sample(np.random.default_rng(0), GRID.n)
        with pytest.raises(CoherenceLost):
            GridMap(GRID, CIRCLE, amb)

    def test_a_nan_node_is_not_coherent(self):
        amb = circle_winding_loop(GridSpec("circle", 8), CIRCLE, 1).ambient
        amb[3] = np.nan
        with pytest.raises(CoherenceLost):
            GridMap(GridSpec("circle", 8), CIRCLE, amb)

    def test_evaluation_nodes(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        k = 13
        p = loop.target.point_from_ambient(loop.ambient[k])
        assert math.atan2(p.ambient[1], p.ambient[0]) == pytest.approx(
            2 * math.pi * k / GRID.n)


MANIFOLDS = {
    "real1": lambda: Euclidean(1),
    "real2": lambda: Euclidean(2),
    "real3": lambda: Euclidean(3),
    "circle": Circle,
    "sphere": Sphere,
    "torus": Torus,
    "so3": RotationGroup,
}

PATH_SAMPLERS = {**MANIFOLDS,
                 "discrete4": lambda: DiscreteManifold(4),
                 **{f"arrows:{name}": (lambda make=make: make().arrows)
                    for name, make in GROUPOIDS.items()}}


class RowZeroFrom:
    """Draws of ``main`` with row 0 taken from ``other``'s equal draw.

    A draw without a leading axis of ``rows`` comes whole from ``other``.
    A sampler whose row i depends only on its own draws therefore changes
    row 0 and keeps every other row.
    """

    def __init__(self, main, other, rows):
        self.main, self.other, self.rows = main, other, rows

    def __getattr__(self, method):
        def draw(*args, **kwargs):
            a = getattr(self.main, method)(*args, **kwargs)
            b = getattr(self.other, method)(*args, **kwargs)
            if np.ndim(a) == 0 or len(a) != self.rows:
                return b
            a = np.array(a)
            a[0] = b[0]
            return a

        return draw


@pytest.mark.parametrize("kind", ["circle", "interval"])
@pytest.mark.parametrize("name", sorted(PATH_SAMPLERS))
def test_batched_path_contract(name, kind):
    """n stacked coherent paths; a single path is the first row of n=1.

    Each row depends only on its own draws: drawing row 0 differently
    leaves rows 1..n-1 bit for bit.
    """
    m = PATH_SAMPLERS[name]()
    grid = GridSpec(kind, 16)
    p, closed = grid.params(), grid.closed
    paths = m.sample_path(p, np.random.default_rng(3), closed, n=5)
    assert paths.shape == (5, 16, m.ambient_dim)
    for row in paths:
        GridMap(grid, m, row)
        ids = np.asarray(m.best_chart(row))
        assert ids.shape == (16,)
        assert np.all((ids >= 0) & (ids < len(m.charts)))
    distinct = len({row.tobytes() for row in paths})
    # five constant paths into four points cannot all differ
    assert distinct == 5 if m.dim > 0 else distinct > 1
    rows = RowZeroFrom(np.random.default_rng(3), np.random.default_rng(4), 5)
    other = m.sample_path(p, rows, closed, n=5)
    assert np.array_equal(other[1:], paths[1:])
    assert not np.array_equal(other[0], paths[0])
    for s in range(3):
        one = m.sample_path(p, np.random.default_rng(s), closed)
        first = m.sample_path(p, np.random.default_rng(s), closed, 1)[0]
        assert one.shape == first.shape and np.array_equal(one, first)


class TestPushforward:
    def test_identity(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        out = pushforward(SmoothMap(CIRCLE, CIRCLE, lambda c: list(c)), loop)
        assert np.allclose(out.ambient, loop.ambient)

    def test_constant(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        out = pushforward(MAPS["circle-constant"], loop)
        assert np.allclose(out.ambient, [1.0, 0.0])

    def test_squaring_doubles_winding(self):
        grid = GridSpec("circle", 256)
        loop = circle_winding_loop(grid, CIRCLE, 1)
        out = pushforward(MAPS["circle-square"], loop,
                          delta_coh=math.pi - 1e-6)
        assert unwrap_winding_oracle(out) == 2
        assert degree(out) == 2

    def test_functoriality_exact(self):
        rng = np.random.default_rng(1)
        f = MAPS["circle-rotate"]
        g = MAPS["circle-square"]
        loop = random_grid_map(GRID, CIRCLE, rng)
        fg = SmoothMap(CIRCLE, CIRCLE, lambda c: g.fn(f.fn(c)))
        lhs = pushforward(fg, loop, delta_coh=np.inf)
        rhs = pushforward(g, pushforward(f, loop), delta_coh=np.inf)
        assert np.array_equal(lhs.ambient, rhs.ambient)


class TestChartPhi:
    """The mapping-space chart phi_f(tau): sigma on the rows of a loop f in
    both circle charts and of a section tau over it."""

    def setup_method(self):
        self.add = riemannian_local_addition(CIRCLE)
        self.loop = circle_winding_loop(GRID, CIRCLE, 1)

    def test_zero_section_gives_base(self):
        out = sigma_rows(self.add, self.loop.ambient,
                         np.zeros_like(self.loop.ambient))
        assert np.allclose(out, self.loop.ambient)

    def test_constant_speed_rotates(self):
        tau = section_from_chart_coeffs(self.loop, np.full((GRID.n, 1), 0.1))
        out = sigma_rows(self.add, self.loop.ambient, tau.vel_ambient)
        th = np.arctan2(out[:, 1], out[:, 0])
        diff = np.mod(th - GRID.params() - 0.1 + math.pi,
                      2 * math.pi) - math.pi
        assert float(np.max(np.abs(diff))) < 1e-12

    def test_round_trip_random_sections(self):
        rng = np.random.default_rng(3)
        vel = np.concatenate([section_from_chart_coeffs(
            self.loop, random_chart_coeffs(GRID, 1, rng, scale=0.3)
        ).vel_ambient for _ in range(100)])
        base = np.tile(self.loop.ambient, (100, 1))
        back = inverse_rows(self.add, base, sigma_rows(self.add, base, vel))
        assert float(np.max(np.abs(back - vel))) < 1e-10

    def test_section_outside_domain(self):
        tau = section_from_chart_coeffs(self.loop,
                                        np.full((GRID.n, 1), math.pi))
        with pytest.raises(DomainViolation):
            self.add.sigma(self.loop.ambient, tau.vel_ambient)

    def test_inverse_rejects_antipodes(self):
        for _, p in CIRCLE.points_by_chart(self.loop.ambient):
            with pytest.raises(NotInThetaImage):
                self.add.theta_inverse(p, -p.ambient)


def z_rotation_loop(grid):
    """SO(3)-valued loop of rotations about the z axis by the grid angle."""
    th = grid.params()
    c, s, o = np.cos(th), np.sin(th), np.zeros_like(th)
    rows = [c, -s, o, s, c, o, o, o, o + 1.0]
    return GridMap(grid, RotationGroup(), np.stack(rows, axis=-1))


class TestSectionFromChartCoeffs:
    @pytest.mark.parametrize("loop", [
        lambda: circle_winding_loop(GRID, CIRCLE, 1),
        lambda: z_rotation_loop(GRID)], ids=["circle", "so3"])
    def test_keeps_the_per_node_bits(self, loop):
        """The batched section, one dual pass per chart, gives each node the
        bits of its own tangent; the nodes lie in more than one chart."""
        gm = loop()
        coeffs = np.random.default_rng(12).normal(size=(GRID.n,
                                                        gm.target.dim))
        nodes = [gm.target.point_from_ambient(a) for a in gm.ambient]
        assert len({p.chart_id for p in nodes}) >= 2
        want = np.stack([Tangent(p, c).ambient_vel()
                         for p, c in zip(nodes, coeffs)])
        got = section_from_chart_coeffs(gm, coeffs).vel_ambient
        assert np.array_equal(got, want)


class TestPushforwardTangent:
    def test_identity(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        tau = section_from_chart_coeffs(
            loop, random_chart_coeffs(GRID, 1, np.random.default_rng(4)))
        out = pushforward_tangent(SmoothMap(CIRCLE, CIRCLE,
                                            lambda c: list(c)), loop, tau)
        assert np.allclose(out.vel_ambient, tau.vel_ambient)

    def test_zero_section_stays_zero(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        zero = GridSection(loop, np.zeros_like(loop.ambient))
        out = pushforward_tangent(MAPS["circle-square"], loop, zero)
        assert np.allclose(out.vel_ambient, 0.0)
        assert np.allclose(out.base.ambient,
                           pushforward(MAPS["circle-square"], loop,
                                       delta_coh=np.inf).ambient)

    def test_squaring_doubles_speeds(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        tau = section_from_chart_coeffs(loop, np.full((GRID.n, 1), 1.0))
        out = pushforward_tangent(MAPS["circle-square"], loop, tau)
        speeds = np.linalg.norm(out.vel_ambient, axis=-1)
        assert np.allclose(speeds, 2.0, atol=1e-12)

    def test_so3_exponential_matches_nodewise_tangent_map(self):
        # ad.where on dual arrays: node 0 sits at xi = 0, on the series branch
        # of the exponential chart at the identity
        space = Euclidean(3)
        so3 = RotationGroup()
        f = SmoothMap(space, so3, so3.charts[0].inv)
        th = 2 * math.pi * np.arange(16) / 16
        amb = 0.6 * np.stack([np.sin(th), 1 - np.cos(th), np.sin(2 * th)], -1)
        gamma = GridMap(GridSpec("circle", 16), space, amb)
        tau = section_from_chart_coeffs(gamma, random_chart_coeffs(
            gamma.grid, 3, np.random.default_rng(9)))
        out = pushforward_tangent(f, gamma, tau)
        for i in range(16):
            t = tangent_map(f, tangent_from_ambient(space, amb[i],
                                                    tau.vel_ambient[i]))
            assert np.max(np.abs(out.base.ambient[i] - t.base.ambient)) < 1e-12
            assert np.max(np.abs(out.vel_ambient[i] - t.ambient_vel())) < 1e-12


class TestClassify:
    def test_submersion(self):
        rng = np.random.default_rng(5)
        gamma = random_grid_map(GRID, Euclidean(2), rng)
        got = classify_pushforward(MAPS["plane-projection"], gamma)
        assert got.verdict == "submersion_on_trace"

    def test_immersion(self):
        rng = np.random.default_rng(6)
        gamma = random_grid_map(GRID, Euclidean(1), rng)
        got = classify_pushforward(MAPS["line-inclusion"], gamma)
        assert got.verdict == "immersion_on_trace"

    def test_local_diffeo(self):
        rng = np.random.default_rng(7)
        gamma = random_grid_map(GRID, Euclidean(1), rng)
        got = classify_pushforward(MAPS["exp-cover"], gamma)
        assert got.verdict == "local_diffeo_on_trace"

    def test_neither(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        got = classify_pushforward(MAPS["circle-constant"], loop)
        assert got.verdict == "neither"

    def test_zero_dimensional_source(self):
        # no chart directions: each node Jacobian is 1 x 0, an immersion
        f = SmoothMap(DiscreteManifold(2), CIRCLE,
                      lambda c: [c[0] * 0.0 + 1.0, c[0] * 0.0])
        gamma = GridMap(GRID, f.source, np.zeros((GRID.n, 1)))
        assert classify_pushforward(f, gamma).verdict == "immersion_on_trace"

    def test_matches_rank_oracle(self):
        # numpy matrix rank of finite-difference chart Jacobians as the
        # oracle, node by node
        rng = np.random.default_rng(8)
        verdicts = {(True, True): "local_diffeo_on_trace",
                    (True, False): "submersion_on_trace",
                    (False, True): "immersion_on_trace",
                    (False, False): "neither"}
        for name in ("plane-projection", "line-inclusion", "exp-cover",
                     "circle-constant", "circle-square"):
            f = MAPS[name]
            gamma = random_grid_map(GRID, f.source, rng)
            ranks = set()
            for a in gamma.ambient:
                i = f.source.best_chart(a)
                j = f.target.best_chart(f.apply_batch(a[None])[0])
                x = [float(c) for c in f.source.charts[i].fwd(list(a))]
                J = fd_jacobian(f.local(i, j), x, 1e-6)
                ranks.add(int(np.linalg.matrix_rank(J, tol=1e-6)))
            want = verdicts[ranks == {f.target.dim}, ranks == {f.source.dim}]
            assert classify_pushforward(f, gamma).verdict == want, name


class TestLocalDiffeoInverse:
    def setup_method(self):
        self.f = exp_cover(CIRCLE)
        self.line = self.f.source
        self.gamma0 = GridMap(GRID, self.line, np.zeros((GRID.n, 1)))

    def test_identity_map_returns_input(self):
        idm = SmoothMap(self.line, self.line, lambda c: list(c),
                        preimage_branches=lambda target, near: [target])
        idm.branch_separation = 20.0
        eta = GridMap(GRID, self.line,
                      (0.4 * np.sin(GRID.params()))[:, None])
        out = local_diffeo_inverse(idm, self.gamma0, eta)
        assert np.array_equal(out.ambient, eta.ambient)

    def test_a_map_without_preimage_branches_is_unsupported(self):
        idm = SmoothMap(self.line, self.line, lambda c: list(c))
        with pytest.raises(Unsupported, match="preimage branches"):
            local_diffeo_inverse(idm, self.gamma0, self.gamma0)

    def test_reconstructs_against_log_branch_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            off = rng.uniform(-2, 2)
            truth = GridMap(GRID, self.line,
                            (off + 0.5 * np.sin(GRID.params()))[:, None])
            eta = pushforward(self.f, truth)
            start = self.line.point_from_ambient([truth.ambient[0, 0]])
            got = local_diffeo_inverse(self.f, self.gamma0, eta, start=start)
            # oracle: continuous angle branch chosen nearest the start value
            th = np.unwrap(np.arctan2(eta.ambient[:, 1], eta.ambient[:, 0]))
            th += 2 * math.pi * round((truth.ambient[0, 0] - th[0])
                                      / (2 * math.pi))
            assert float(np.max(np.abs(got.ambient[:, 0] - th))) < 1e-10
            assert float(np.max(np.abs(got.ambient - truth.ambient))) < 1e-10
            back = pushforward(self.f, got)
            assert seminorm_distance(back, eta)[0] < 1e-10

    def test_winding_one_has_no_lift(self):
        idloop = circle_winding_loop(GRID, CIRCLE, 1)
        with pytest.raises(OutsideNeighborhood):
            local_diffeo_inverse(self.f, self.gamma0, idloop)

    def test_all_branches_rejected(self):
        idloop = circle_winding_loop(GRID, CIRCLE, 1)
        rejected = 0
        for k in range(-16, 16):
            start = self.line.point_from_ambient([2 * math.pi * k])
            try:
                local_diffeo_inverse(self.f, self.gamma0, idloop, start=start)
            except (OutsideNeighborhood, BranchAmbiguity):
                rejected += 1
        assert rejected == 32

    def test_branch_ambiguity_detected(self):
        # a map whose preimage branches collide triggers the error
        f = SmoothMap(self.line, self.line, lambda c: list(c))
        f.preimage_branches = lambda target, near: [
            np.asarray([target[0]]), np.asarray([target[0] + 1e-6])]
        f.branch_separation = 1.0
        eta = GridMap(GRID, self.line,
                      (0.1 * np.sin(GRID.params()))[:, None])
        with pytest.raises(BranchAmbiguity):
            local_diffeo_inverse(f, self.gamma0, eta)


    @staticmethod
    def faulty_cover(wrong=None, far=None):
        """exp_cover whose branches are off by 0.5 at node ``wrong``, a
        wrong preimage in reach, and lie 4 away at node ``far``, out of
        reach; the walk asks once per node, in node order."""
        cover = exp_cover(CIRCLE)
        node = itertools.count()

        def branches(target, near):
            i = next(node)
            if i == far:
                return [np.asarray(near) + 4.0]
            shift = 0.5 if i == wrong else 0.0
            return [b + shift for b in cover.preimage_branches(target, near)]

        f = SmoothMap(cover.source, CIRCLE, cover.fn,
                      preimage_branches=branches)
        f.branch_separation = cover.branch_separation
        return f

    def test_the_first_failing_node_names_the_error(self):
        """A residual fault before a step fault is the error; a step fault
        alone names its own node."""
        grid = GridSpec("interval", 16)
        truth = GridMap(grid, self.line, (0.3 * grid.params())[:, None])
        eta = pushforward(self.f, truth)
        gamma0 = GridMap(grid, self.line, np.zeros((grid.n, 1)))
        f = self.faulty_cover(wrong=4, far=9)
        with pytest.raises(OutsideNeighborhood,
                           match=r"^residual .* at node 4$") as err:
            local_diffeo_inverse(f, gamma0, eta)
        assert err.value.index == 4
        f = self.faulty_cover(far=9)
        with pytest.raises(OutsideNeighborhood,
                           match=r"^lift leaves its neighborhood at node 9$"
                           ) as err:
            local_diffeo_inverse(f, gamma0, eta)
        assert err.value.index == 9


class TestDegree:
    def test_identity_loop(self):
        assert degree(circle_winding_loop(GRID, CIRCLE, 1)) == 1

    def test_constant_loop(self):
        assert degree(constant_grid_map(GRID,
                                        CIRCLE.point_at_angle(0.7))) == 0

    def test_matches_unwrap_oracle_on_random_loops(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            loop = random_grid_map(GRID, CIRCLE, rng)
            assert degree(loop) == unwrap_winding_oracle(loop)

    def test_refinement_invariance(self):
        for n in (64, 128, 256):
            loop = circle_winding_loop(GridSpec("circle", n), CIRCLE, 2)
            assert degree(loop) == 2

    def test_interval_rejected(self):
        gm = GridMap(GridSpec("interval", 16), CIRCLE,
                     np.tile([1.0, 0.0], (16, 1)))
        with pytest.raises(ValueError):
            degree(gm)


class TestSeminorms:
    def test_zero_for_equal_maps(self):
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        prof = seminorm_distance(loop, loop)
        assert all(v == 0.0 for v in prof)

    def test_identity_vs_constant_first_order(self):
        # |d/dx identity loop| = 1 in the plane; constant has derivative 0
        loop = circle_winding_loop(GRID, CIRCLE, 1)
        const = constant_grid_map(GRID, CIRCLE.point_at_angle(0.0))
        prof = seminorm_distance(loop, const)
        assert prof[1] == pytest.approx(1.0, abs=10.0 / GRID.n)
        assert prof[0] == pytest.approx(2.0, abs=0.01)

    def test_second_order_profile(self):
        grid = GridSpec("circle", 128, ell=2)
        loop = circle_winding_loop(grid, CIRCLE, 1)
        const = constant_grid_map(grid, CIRCLE.point_at_angle(0.0))
        prof = seminorm_distance(loop, const)
        assert len(prof) == 3
        # second ambient derivative of the unit-speed loop has norm 1
        assert prof[2] == pytest.approx(1.0, abs=10.0 / grid.n)

    def test_interval_one_sided_differences(self):
        grid = GridSpec("interval", 32, ell=1)
        line = Euclidean(1)
        a = GridMap(grid, line, grid.params()[:, None])
        b = GridMap(grid, line, np.zeros((grid.n, 1)))
        prof = seminorm_distance(a, b)
        assert prof[1] == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        loop = circle_winding_loop(GridSpec("circle", 8), CIRCLE, 1)
        path = tmp_path / "loop.csv"
        gridmap_to_csv(loop, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,ambient_0,ambient_1"
        assert len(lines) == 9
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == list(range(8))
        back = np.array([[float(x) for x in row[1:]] for row in rows])
        assert np.array_equal(back, loop.ambient)


class TestEmbeddingBehavior:
    def test_injective_with_exact_retraction(self):
        e = MAPS["circle-embed"]
        rng = np.random.default_rng(13)
        seen = []
        for _ in range(100):
            gamma = random_grid_map(GRID, CIRCLE, rng)
            img = pushforward(e, gamma, delta_coh=np.inf)
            norms = np.linalg.norm(img.ambient, axis=-1, keepdims=True)
            back = img.ambient / norms
            assert float(np.max(CIRCLE.distance(back, gamma.ambient))) < 1e-10
            seen.append((gamma.ambient.copy(), img.ambient.copy()))
        for a, fa in seen[:20]:
            for b, fb in seen[20:40]:
                if np.max(np.abs(fa - fb)) < 1e-12:
                    assert np.max(np.abs(a - b)) < 1e-12
