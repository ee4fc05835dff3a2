import json
import math

import numpy as np
import pytest

from currentgpd.catalog import (MANIFOLDS, Circle, Euclidean, catalog_maps,
                                exp_cover)
from currentgpd.errors import (BranchAmbiguity, CoherenceLost,
                               GraphOutsideDomain, NotInDomainU,
                               NotInThetaImage, OutsideNeighborhood)
from currentgpd.gridmaps import (GridMap, GridSpec, SuperpositionMap,
                                 chart_phi, chart_phi_inverse,
                                 circle_identity_loop, circle_winding_loop,
                                 classify_pushforward, constant_grid_map,
                                 degree, evaluation, gridmap_from_csv,
                                 gridmap_from_json, gridmap_to_csv,
                                 gridmap_to_json, local_diffeo_inverse,
                                 pushforward, pushforward_tangent,
                                 random_grid_map, random_section,
                                 section_from_chart_coeffs,
                                 seminorm_distance, superposition,
                                 zero_section)
from currentgpd.groupoids import GROUPOIDS
from currentgpd.localadd import riemannian_local_addition
from currentgpd.manifolds import DiscreteManifold, SmoothMap


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

    def test_evaluation_nodes(self):
        loop = circle_identity_loop(GRID, CIRCLE)
        k = 13
        p = evaluation(loop, k)
        assert math.atan2(p.ambient[1], p.ambient[0]) == pytest.approx(
            2 * math.pi * k / GRID.n)

    def test_values_are_points(self):
        loop = circle_identity_loop(GridSpec("circle", 8), CIRCLE)
        assert len(loop.values) == 8
        assert loop.values[0].manifold is CIRCLE


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
        loop = circle_identity_loop(GRID, CIRCLE)
        out = pushforward(SmoothMap(CIRCLE, CIRCLE, lambda c: list(c)), loop)
        assert np.allclose(out.ambient, loop.ambient)

    def test_constant(self):
        loop = circle_identity_loop(GRID, CIRCLE)
        out = pushforward(MAPS["circle-constant"], loop)
        assert np.allclose(out.ambient, [1.0, 0.0])

    def test_squaring_doubles_winding(self):
        grid = GridSpec("circle", 256)
        loop = circle_identity_loop(grid, CIRCLE)
        out = pushforward(MAPS["circle-square"], loop,
                          delta_coh=math.pi - 1e-6)
        assert unwrap_winding_oracle(out) == 2
        assert degree(out) == 2

    def test_functoriality_exact(self):
        rng = np.random.default_rng(1)
        f = MAPS["circle-rotate"]
        g = MAPS["circle-square"]
        loop = random_grid_map(GRID, CIRCLE, rng)
        lhs = pushforward(f.then(g), loop, delta_coh=np.inf)
        rhs = pushforward(g, pushforward(f, loop), delta_coh=np.inf)
        assert np.array_equal(lhs.ambient, rhs.ambient)


class TestSuperposition:
    def test_ignoring_the_parameter_is_pushforward(self):
        g = MAPS["circle-rotate"]
        sup = SuperpositionMap(CIRCLE, CIRCLE,
                               lambda x, comps: g.fn(comps))
        rng = np.random.default_rng(2)
        loop = random_grid_map(GRID, CIRCLE, rng)
        assert np.allclose(superposed := superposition(sup, loop).ambient,
                           pushforward(g, loop).ambient)

    def test_projection_returns_input(self):
        sup = SuperpositionMap(CIRCLE, CIRCLE, lambda x, comps: list(comps))
        loop = circle_identity_loop(GRID, CIRCLE)
        assert np.allclose(superposition(sup, loop).ambient, loop.ambient)

    def test_domain_violation_reports_node(self):
        bad_node = 11
        xs = GRID.params()

        def domain(x, amb):
            return abs(x - xs[bad_node]) > 1e-12

        sup = SuperpositionMap(CIRCLE, CIRCLE,
                               lambda x, comps: list(comps), domain=domain)
        loop = circle_identity_loop(GRID, CIRCLE)
        with pytest.raises(GraphOutsideDomain) as err:
            superposition(sup, loop)
        assert err.value.index == bad_node


class TestChartPhi:
    def setup_method(self):
        self.add = riemannian_local_addition(CIRCLE)
        self.loop = circle_identity_loop(GRID, CIRCLE)

    def test_zero_section_gives_base(self):
        out = chart_phi(self.add, self.loop, zero_section(self.loop))
        assert np.allclose(out.ambient, self.loop.ambient)

    def test_constant_speed_rotates(self):
        tau = section_from_chart_coeffs(self.loop, np.full((GRID.n, 1), 0.1))
        out = chart_phi(self.add, self.loop, tau)
        th = np.arctan2(out.ambient[:, 1], out.ambient[:, 0])
        diff = np.mod(th - GRID.params() - 0.1 + math.pi,
                      2 * math.pi) - math.pi
        assert float(np.max(np.abs(diff))) < 1e-12

    def test_round_trip_random_sections(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            tau = random_section(self.loop, rng, scale=0.3)
            g = chart_phi(self.add, self.loop, tau)
            back = chart_phi_inverse(self.add, self.loop, g)
            assert float(np.max(np.abs(back.vel_ambient
                                       - tau.vel_ambient))) < 1e-10

    def test_section_outside_domain(self):
        tau = section_from_chart_coeffs(self.loop,
                                        np.full((GRID.n, 1), math.pi))
        with pytest.raises(NotInDomainU):
            chart_phi(self.add, self.loop, tau)

    def test_inverse_rejects_antipodes(self):
        far = circle_winding_loop(GRID, CIRCLE, 1, phase=math.pi)
        with pytest.raises(NotInThetaImage):
            chart_phi_inverse(self.add, self.loop, far)


class TestPushforwardTangent:
    def test_identity(self):
        loop = circle_identity_loop(GRID, CIRCLE)
        tau = random_section(loop, np.random.default_rng(4))
        out = pushforward_tangent(SmoothMap(CIRCLE, CIRCLE,
                                            lambda c: list(c)), loop, tau)
        assert np.allclose(out.vel_ambient, tau.vel_ambient)

    def test_zero_section_stays_zero(self):
        loop = circle_identity_loop(GRID, CIRCLE)
        out = pushforward_tangent(MAPS["circle-square"], loop,
                                  zero_section(loop))
        assert np.allclose(out.vel_ambient, 0.0)
        assert np.allclose(out.base.ambient,
                           pushforward(MAPS["circle-square"], loop,
                                       delta_coh=np.inf).ambient)

    def test_squaring_doubles_speeds(self):
        loop = circle_identity_loop(GRID, CIRCLE)
        tau = section_from_chart_coeffs(loop, np.full((GRID.n, 1), 1.0))
        out = pushforward_tangent(MAPS["circle-square"], loop, tau)
        speeds = np.linalg.norm(out.vel_ambient, axis=-1)
        assert np.allclose(speeds, 2.0, atol=1e-12)


class TestClassify:
    def test_submersion(self):
        rng = np.random.default_rng(5)
        gamma = random_grid_map(GRID, Euclidean(2), rng)
        got = classify_pushforward(MAPS["plane-projection"], gamma)
        assert got.verdict == "submersion_on_trace"
        assert all(r == 1 for r in got.node_ranks)

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
        loop = circle_identity_loop(GRID, CIRCLE)
        got = classify_pushforward(MAPS["circle-constant"], loop)
        assert got.verdict == "neither"

    def test_matches_rank_oracle(self):
        # numpy matrix rank of the explicit Jacobians as the oracle
        rng = np.random.default_rng(8)
        gamma = random_grid_map(GRID, Euclidean(2), rng)
        got = classify_pushforward(MAPS["plane-projection"], gamma)
        for i in range(GRID.n):
            J = np.array([[1.0, 0.0]])
            assert got.node_ranks[i] == np.linalg.matrix_rank(J)


class TestLocalDiffeoInverse:
    def setup_method(self):
        self.f = exp_cover(CIRCLE)
        self.line = self.f.source
        self.gamma0 = GridMap(GRID, self.line, np.zeros((GRID.n, 1)))

    def test_identity_map_returns_input(self):
        idm = SmoothMap(self.line, self.line, lambda c: list(c))
        rng = np.random.default_rng(9)
        eta = GridMap(GRID, self.line,
                      (0.4 * np.sin(GRID.params()))[:, None])
        out = local_diffeo_inverse(idm, self.gamma0, eta, max_step=10.0)
        assert np.allclose(out.ambient, eta.ambient, atol=1e-12)

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
            assert seminorm_distance(back, eta).order0 < 1e-10

    def test_winding_one_has_no_lift(self):
        idloop = circle_identity_loop(GRID, CIRCLE)
        with pytest.raises(OutsideNeighborhood):
            local_diffeo_inverse(self.f, self.gamma0, idloop)

    def test_all_branches_rejected(self):
        idloop = circle_identity_loop(GRID, CIRCLE)
        rejected = 0
        for k in range(-16, 16):
            start = self.line.point_from_ambient([2 * math.pi * k])
            try:
                local_diffeo_inverse(self.f, self.gamma0, idloop, start=start)
            except (OutsideNeighborhood, BranchAmbiguity):
                rejected += 1
        assert rejected == 32

    def test_patch_radius_respected(self):
        truth = GridMap(GRID, self.line,
                        (2.0 + 0.1 * np.sin(GRID.params()))[:, None])
        eta = pushforward(self.f, truth)
        with pytest.raises(OutsideNeighborhood):
            local_diffeo_inverse(self.f, self.gamma0, eta, patch_radius=0.5)

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


class TestDegree:
    def test_identity_loop(self):
        assert degree(circle_identity_loop(GRID, CIRCLE)) == 1

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
        loop = circle_identity_loop(GRID, CIRCLE)
        prof = seminorm_distance(loop, loop)
        assert all(v == 0.0 for v in prof.orders)

    def test_identity_vs_constant_first_order(self):
        # |d/dx identity loop| = 1 in the plane; constant has derivative 0
        loop = circle_identity_loop(GRID, CIRCLE)
        const = constant_grid_map(GRID, CIRCLE.point_at_angle(0.0))
        prof = seminorm_distance(loop, const)
        assert prof[1] == pytest.approx(1.0, abs=10.0 / GRID.n)
        assert prof.order0 == pytest.approx(2.0, abs=0.01)

    def test_second_order_profile(self):
        grid = GridSpec("circle", 128, ell=2)
        loop = circle_identity_loop(grid, CIRCLE)
        const = constant_grid_map(grid, CIRCLE.point_at_angle(0.0))
        prof = seminorm_distance(loop, const)
        assert len(prof.orders) == 3
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
        loop = circle_identity_loop(GridSpec("circle", 8), CIRCLE)
        path = tmp_path / "loop.csv"
        gridmap_to_csv(loop, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,ambient_0,ambient_1"
        assert len(lines) == 9
        back = gridmap_from_csv(path, loop.grid, CIRCLE)
        assert float(np.max(np.abs(back.ambient - loop.ambient))) < 1e-12

    def test_json_round_trip(self):
        rng = np.random.default_rng(12)
        gm = random_grid_map(GRID, CIRCLE, rng)
        data = json.loads(json.dumps(gridmap_to_json(gm)))
        back = gridmap_from_json(data, CIRCLE)
        assert back.grid == gm.grid
        assert float(np.max(np.abs(back.ambient - gm.ambient))) < 1e-12


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
