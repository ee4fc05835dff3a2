import math

import numpy as np
import pytest

from currentgpd.errors import (BranchAmbiguity, CoherenceLost,
                               StartNotInOrbit, Unsupported)
from currentgpd.gridmaps import GridMap, GridSpec
from currentgpd.groupoids import make_groupoid
from currentgpd.orbifolds import (OrbitSpacePath,
                                  atlas_connectivity_negative_test,
                                  lift_projection_residual, local_action_form,
                                  orbit_distance, path_lift)


Z4 = make_groupoid("z4-plane")
Z2 = make_groupoid("z2-line")


def quarter_arc_path(grid, rng, radius=1.0, arc=math.pi / 2):
    t = grid.params() * arc
    pts = radius * np.stack([np.cos(t), np.sin(t)], axis=-1)
    reps = pts.copy()
    for i in range(grid.n):
        g = int(rng.integers(4))
        reps[i] = Z4.finite_group.elements[g].act(reps[i])
    return pts, OrbitSpacePath(grid, reps)


class TestLocalActionForm:
    def test_z4_fixed_point(self):
        form = local_action_form(Z4, Z4.base.point_from_ambient([0.0, 0.0]),
                                 n_check=500, seed=0)
        assert len(form.isotropy) == 4
        assert form.action_law_residual <= 1e-9
        assert form.phi_bijectivity_residual <= 1e-9
        assert form.phi_multiplicativity_residual <= 1e-9
        # the reconstructed action is the rotation action on a disk
        y = np.array([0.3 * form.radius, 0.1 * form.radius])
        rot = Z4.finite_group.elements[form.isotropy.element_indices[1]].act(y)
        assert np.allclose(rot, [-y[1], y[0]]) or np.allclose(rot, [y[1], -y[0]])

    def test_generic_point_has_trivial_isotropy(self):
        form = local_action_form(Z4, Z4.base.point_from_ambient([1.0, 0.0]),
                                 n_check=500, seed=1)
        assert len(form.isotropy) == 1
        # the neighborhood must avoid the other orbit points at distance sqrt(2)
        assert form.radius <= math.sqrt(2.0) / 2 + 1e-12

    def test_z2_reflection(self):
        form = local_action_form(Z2, Z2.base.point_from_ambient([0.0]),
                                 n_check=500, seed=2)
        assert len(form.isotropy) == 2
        y = np.array([0.4 * form.radius])
        el = Z2.finite_group.elements[form.isotropy.element_indices[1]]
        assert np.allclose(el.act(y), -y)

    def test_needs_finite_group(self):
        pg = make_groupoid("pair-real1")
        with pytest.raises(Unsupported):
            local_action_form(pg, pg.base.point_from_ambient([0.0]))


class TestPathLift:
    def test_constant_path(self):
        grid = GridSpec("interval", 16)
        reps = np.tile([1.0, 0.0], (16, 1))
        path = OrbitSpacePath(grid, reps)
        start = Z4.base.point_from_ambient([1.0, 0.0])
        lift = path_lift(Z4, path, start)
        assert np.allclose(lift.ambient, [1.0, 0.0])

    def test_quarter_arc_endpoint(self):
        grid = GridSpec("interval", 32)
        rng = np.random.default_rng(3)
        pts, path = quarter_arc_path(grid, rng)
        start = Z4.base.point_from_ambient(pts[0])
        lift = path_lift(Z4, path, start)
        assert np.allclose(lift.ambient[-1], [0.0, 1.0], atol=1e-12)
        assert lift_projection_residual(Z4, path, lift) <= 1e-10

    def test_projection_round_trip_random(self):
        rng = np.random.default_rng(4)
        grid = GridSpec("interval", 24)
        for _ in range(100):
            r = 1.0 + 0.3 * np.sin(2 * math.pi * grid.params()
                                   * rng.uniform(0.5, 1.5))
            a = rng.uniform(0, 2 * math.pi) + 0.8 * np.sin(
                2 * math.pi * grid.params() + rng.uniform(0, 6))
            pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
            reps = pts.copy()
            for i in range(grid.n):
                reps[i] = Z4.finite_group.elements[
                    int(rng.integers(4))].act(reps[i])
            path = OrbitSpacePath(grid, reps)
            lift = path_lift(Z4, path, Z4.base.point_from_ambient(pts[0]))
            assert lift_projection_residual(Z4, path, lift) <= 1e-10

    def test_equivariance_exact(self):
        grid = GridSpec("interval", 32)
        rng = np.random.default_rng(5)
        pts, path = quarter_arc_path(grid, rng)
        base_lift = path_lift(Z4, path, Z4.base.point_from_ambient(pts[0]))
        for g in Z4.finite_group.elements[1:]:
            start = Z4.base.point_from_ambient(g.act(pts[0]))
            lifted = path_lift(Z4, path, start)
            assert float(np.max(np.abs(lifted.ambient
                                       - g.act(base_lift.ambient)))) <= 1e-12

    def test_lifts_from_distinct_starts_differ_everywhere(self):
        grid = GridSpec("interval", 32)
        rng = np.random.default_rng(6)
        pts, path = quarter_arc_path(grid, rng)
        lifts = []
        for g in Z4.finite_group.elements:
            start = Z4.base.point_from_ambient(g.act(pts[0]))
            lifts.append(path_lift(Z4, path, start).ambient)
        for i in range(4):
            for j in range(i + 1, 4):
                gaps = np.linalg.norm(lifts[i] - lifts[j], axis=-1)
                assert float(np.min(gaps)) > 0.5

    def test_fixed_point_crossing_is_ambiguous(self):
        grid = GridSpec("interval", 16)
        t = np.linspace(-1.0, 1.0, grid.n)
        reps = np.stack([t, np.zeros_like(t)], axis=-1)
        path = OrbitSpacePath(grid, reps)
        with pytest.raises(BranchAmbiguity):
            path_lift(Z4, path, Z4.base.point_from_ambient([-1.0, 0.0]))

    def test_start_must_lie_in_first_orbit(self):
        grid = GridSpec("interval", 16)
        reps = np.tile([1.0, 0.0], (16, 1))
        path = OrbitSpacePath(grid, reps)
        with pytest.raises(StartNotInOrbit):
            path_lift(Z4, path, Z4.base.point_from_ambient([0.5, 0.5]))

    def test_incoherent_orbit_path_rejected(self):
        grid = GridSpec("interval", 16)
        reps = np.tile([1.0, 0.0], (16, 1))
        reps[8] = [30.0, 0.0]
        path = OrbitSpacePath(grid, reps)
        with pytest.raises(CoherenceLost):
            path_lift(Z4, path, Z4.base.point_from_ambient([1.0, 0.0]))


    @pytest.mark.parametrize("kind", ["circle", "interval"])
    def test_a_stack_lifts_as_its_lone_calls(self, kind):
        """Each path of a stack gets its lone call's lift bits, or its
        error's type and message: good paths next to one path for each
        fault, which stops none of the others."""
        grid = GridSpec(kind, 16)
        rng = np.random.default_rng(14)
        t = grid.params() if grid.closed else 2 * math.pi * grid.params()
        paths, starts, want_kinds = [], [], []

        def add(pts, start, want):
            reps = pts.copy()
            for i in range(grid.n):
                reps[i] = Z4.finite_group.elements[
                    int(rng.integers(4))].act(reps[i])
            paths.append(reps)
            starts.append(start)
            want_kinds.append(want)

        # loops around (2, 0), and the same loops from other translates
        for g in range(4):
            pts = np.stack([2 + 0.5 * np.cos(t), 0.5 * np.sin(t)], axis=-1)
            add(pts, Z4.finite_group.elements[g].act(pts[0]), "lift")
        add(pts, pts[0] + 0.1, "start lift is")
        # a small loop through the fixed point 0
        small = 0.1 * np.stack([1 - np.cos(t), np.sin(t)], axis=-1)
        add(small, small[0], "ambiguous")
        jump = pts.copy()
        jump[9] = [30.0, 0.0]
        add(jump, pts[0], "orbit gap")
        # a quarter turn about 0 closes up in the orbits, not in the plane
        quarter = np.stack([np.cos(t / 4), np.sin(t / 4)], axis=-1)
        add(quarter, quarter[0],
            "lift does not close up" if grid.closed else "lift")
        got = path_lift(Z4, OrbitSpacePath(grid, np.stack(paths)),
                        Z4.base.point_from_ambient(np.stack(starts),
                                                   chart_id=0))
        assert len(got) == len(paths)
        for b, (out, want_kind) in enumerate(zip(got, want_kinds)):
            try:
                want = path_lift(Z4, OrbitSpacePath(grid, paths[b]),
                                 Z4.base.point_from_ambient(starts[b]))
            except (StartNotInOrbit, BranchAmbiguity, CoherenceLost) as err:
                assert type(out) is type(err), b
                assert str(out) == str(err), b
                assert str(err).startswith(want_kind), b
            else:
                assert want_kind == "lift" and isinstance(out, GridMap), b
                assert np.array_equal(out.ambient, want.ambient), b
                assert out.delta_coh == want.delta_coh, b


class TestOrbitDistance:
    def test_orbit_identification(self):
        grp = Z4.finite_group
        a = np.array([1.0, 0.0])
        for e in grp.elements:
            assert float(orbit_distance(grp, a, e.act(a))) < 1e-12
        assert float(orbit_distance(grp, a, np.array([2.0, 0.0]))) == \
            pytest.approx(1.0)


class TestAtlasObstruction:
    def test_identity_loop_obstructed(self):
        cert = atlas_connectivity_negative_test(GridSpec("circle", 64))
        assert cert.verdict == "obstructed"
        wd = cert.witness_data
        assert len(wd["label_switches"]) >= 2
        assert wd["node_outside_first_chart"] is not None
        assert wd["node_outside_second_chart"] is not None
        assert wd["short_arc_realizable"]
        assert wd["arcs_cover_circle"]

    def test_refinement_stability(self):
        verdicts = {atlas_connectivity_negative_test(
            GridSpec("circle", n)).verdict for n in (64, 256, 1024)}
        assert verdicts == {"obstructed"}

    def test_interval_grid_rejected(self):
        with pytest.raises(ValueError):
            atlas_connectivity_negative_test(GridSpec("interval", 16))
