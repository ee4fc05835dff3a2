import json

import numpy as np
import pytest

from currentgpd import groupoids
from currentgpd.catalog import Circle
from currentgpd.currents import (AXIOM_CHUNK, action_iso, build_current,
                                 current_anchor_rank_nodes,
                                 current_etale_nodes, pair_iso,
                                 proper_etale_fiber_bound,
                                 properness_failure_witness,
                                 transitivity_obstruction)
from currentgpd.errors import NotComposable, Unsupported
from currentgpd.gridmaps import (GridSpec, circle_winding_loop,
                                 constant_grid_map)
from currentgpd.groupoids import GROUPOIDS, LieGroupoid, make_groupoid

CIRCLE = Circle()


class TestBuildCurrent:
    def test_unit_groupoid_current_is_trivial(self):
        cur = build_current(make_groupoid("unit-circle"), GridSpec("circle", 16))
        rng = np.random.default_rng(0)
        a = cur.sample_arrow(rng)
        assert np.allclose(cur.alpha_star(a).ambient, a.ambient)
        assert np.allclose(cur.beta_star(a).ambient, a.ambient)
        assert np.allclose(cur.mu_star(a, a).ambient, a.ambient)

    def test_interval_fiber_paths_stay_coherent(self):
        cur = build_current(make_groupoid("so3-action"),
                            GridSpec("interval", 24))
        rng = np.random.default_rng(0)
        for _ in range(200):
            cur.sample_with_beta(cur.alpha_star(cur.sample_arrow(rng)), rng)

    def test_group_current_is_a_group_of_loops(self):
        # over the one-point base every pair of loops composes
        cur = build_current(make_groupoid("so3-group"), GridSpec("circle", 8))
        rng = np.random.default_rng(1)
        a = cur.sample_arrow(rng)
        b = cur.sample_arrow(rng)
        ab = cur.mu_star(a, b)
        expected = np.einsum("nij,njk->nik",
                             a.ambient.reshape(-1, 3, 3),
                             b.ambient.reshape(-1, 3, 3)).reshape(-1, 9)
        assert float(np.max(np.abs(ab.ambient - expected))) < 1e-12

    def test_lifted_axioms_across_catalog(self):
        for name in GROUPOIDS:
            cur = build_current(make_groupoid(name), GridSpec("circle", 16))
            rep = cur.check_axioms(100, seed=2)
            assert rep.max_violation <= 1e-9, (name, rep.violations)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_a_chunk_of_samples_checks_the_first_chunk_of_more(
            self, seed, monkeypatch):
        # the suite's records on 256 nodes check AXIOM_CHUNK samples: the
        # first draw of the stream that a larger check on the seed takes
        chunks = []
        violations = groupoids.axiom_violations
        monkeypatch.setattr(groupoids, "axiom_violations",
                            lambda *draw: chunks.append(violations(*draw))
                            or chunks[-1])
        cur = build_current(make_groupoid("rot-action"), GridSpec("circle", 8))
        full = cur.check_axioms(n_samples=4 * AXIOM_CHUNK, seed=seed)
        assert len(chunks) == 4
        part = cur.check_axioms(n_samples=AXIOM_CHUNK, seed=seed)
        assert part.violations == chunks[0]
        assert max(part.violations.values()) > 0
        assert all(val <= full.violations[law]
                   for law, val in part.violations.items())

    def test_batched_axioms_catch_a_rare_fault(self):
        # mu is wrong only where the first arrow coordinate exceeds 3.5,
        # which about 2 % of the arrow paths reach; every row of a chunk
        # must be checked, including the 10 of the second chunk
        good = make_groupoid("pair-real1")
        grid = GridSpec("circle", 8)
        thr = 3.5

        def bad_mu(g, h):
            out = good.mu_fn(g, h)
            return [out[0] + np.where(np.asarray(g[0]) > thr, 1e-3, 0.0),
                    out[1]]

        paths = good.arrows.sample_path(grid.params(),
                                        np.random.default_rng(1), True, 1000)
        assert np.mean(np.max(paths, axis=(1, 2)) > thr) < 0.05
        bad = LieGroupoid("rarely-wrong-pair", good.arrows, good.base,
                          good.alpha, good.beta, bad_mu, good.iota,
                          good.unit, fiber=good.fiber)
        rep = build_current(bad, grid).check_axioms(n_samples=260, seed=0)
        assert rep.max_violation > 1e-9

    def test_nodewise_composability_required(self):
        cur = build_current(make_groupoid("pair-real1"), GridSpec("circle", 8))
        rng = np.random.default_rng(3)
        a = cur.sample_arrow(rng)
        b = cur.sample_arrow(rng)  # endpoints do not match
        with pytest.raises(NotComposable):
            cur.mu_star(a, b)

    def test_a_nan_endpoint_is_not_composable(self):
        cur = build_current(make_groupoid("pair-real1"), GridSpec("circle", 8))
        rng = np.random.default_rng(3)
        a = cur.sample_arrow(rng)
        b = cur.sample_with_beta(cur.alpha_star(a), rng)
        cur.mu_star(a, b)
        b.ambient[2, 0] = np.nan  # the target of b at node 2
        with pytest.raises(NotComposable):
            cur.mu_star(a, b)


class TestStructuralIsos:
    def test_pair_iso_commutes(self):
        assert pair_iso(GridSpec("circle", 16), CIRCLE, 500, seed=4) <= 1e-10

    def test_action_iso_commutes(self):
        res = action_iso(GridSpec("circle", 16), make_groupoid("rot-action"),
                         100, seed=5)
        assert res <= 1e-10

    def test_minimal_grid(self):
        assert pair_iso(GridSpec("circle", 8), CIRCLE, 20, seed=6) <= 1e-10

    def test_action_iso_needs_an_action_groupoid(self):
        with pytest.raises(Unsupported):
            action_iso(GridSpec("circle", 8), make_groupoid("pair-real1"), 2)


class TestTransitivityObstruction:
    def test_diagonal_target_solves_to_zero(self):
        grid = GridSpec("circle", 64)
        idl = circle_winding_loop(grid, CIRCLE, 1)
        cert = transitivity_obstruction(grid, target=(idl, idl))
        assert cert.verdict == "solvable"
        assert cert.max_residual <= 1e-10
        assert float(np.max(np.abs(np.asarray(
            cert.witness_data["angle_path"])))) < 1e-12

    def test_constant_pair_solves_pointwise(self):
        grid = GridSpec("circle", 64)
        cert = transitivity_obstruction(grid, target=(
            constant_grid_map(grid, CIRCLE.point_at_angle(0.0)),
            constant_grid_map(grid, CIRCLE.point_at_angle(0.7))))
        assert cert.verdict == "solvable"
        t = np.asarray(cert.witness_data["angle_path"])
        assert np.allclose(t, 0.7, atol=1e-12)
        assert cert.max_residual <= 1e-10

    def test_identity_to_constant_is_obstructed(self):
        cert = transitivity_obstruction(GridSpec("circle", 64), seed=9)
        assert cert.verdict == "obstructed"
        assert cert.witness_data["required_winding"] == -1
        assert cert.witness_data["achievable_winding"] == 0
        assert cert.witness_data["lift_failures"] == \
            cert.witness_data["lift_attempts"] == 32

    def test_obstruction_stable_under_refinement(self):
        for n in (64, 256, 1024):
            cert = transitivity_obstruction(GridSpec("circle", n),
                                            n_branches=2, seed=10)
            assert cert.verdict == "obstructed"
            assert cert.witness_data["required_winding"] == -1

    def test_certificate_serializes(self):
        cert = transitivity_obstruction(GridSpec("circle", 64), n_branches=2)
        data = cert.to_dict()
        assert set(data) == {"kind", "inputs", "witness_data", "verdict",
                             "max_residual"}
        json.dumps(data, sort_keys=True)


class TestPropernessFailure:
    def test_family_in_one_anchor_fiber(self):
        cert = properness_failure_witness(GridSpec("circle", 256))
        assert cert.max_residual <= 1e-12

    def test_derivatives_grow_linearly(self):
        cert = properness_failure_witness(GridSpec("circle", 256))
        fam = cert.witness_data["family"]
        for k in (1, 2, 4, 8):
            assert abs(fam[k]["order1_seminorm"] - k) <= 0.05 * k

    def test_pairwise_separation(self):
        cert = properness_failure_witness(GridSpec("circle", 256))
        assert cert.witness_data["pairwise_order0_min"] >= 1.0
        assert cert.verdict == "unbounded-derivatives"


class TestFiberBound:
    def test_full_fiber_on_matching_orbits(self):
        z4 = make_groupoid("z4-plane")
        grid = GridSpec("circle", 16)
        rng = np.random.default_rng(11)
        src = z4.base.sample_path(grid.params(), rng, True)
        grp = z4.finite_group
        # same underlying orbit path: all four lifts are found
        from currentgpd.currents import proper_etale_fiber_bound
        cert = proper_etale_fiber_bound(z4, grid, n_pairs=40, seed=11)
        assert cert.verdict == "bounded"
        assert cert.witness_data["max_lifts"] == 4
        assert cert.witness_data["n_empty"] > 0       # cross-orbit pairs
        assert cert.witness_data["max_exact_matches"] <= 4

    def test_bound_never_exceeded(self):
        z2 = make_groupoid("z2-line")
        cert = proper_etale_fiber_bound(z2, GridSpec("circle", 8),
                                        n_pairs=60, seed=12)
        assert cert.witness_data["max_lifts"] <= 2

    def test_needs_a_finite_group(self):
        with pytest.raises(Unsupported):
            proper_etale_fiber_bound(make_groupoid("rot-action"),
                                     GridSpec("circle", 8), n_pairs=2)


class TestPerNodeClassifiers:
    def test_finite_action_source_is_etale_nodewise(self):
        ok, worst = current_etale_nodes(make_groupoid("z4-plane"),
                                        GridSpec("circle", 8),
                                        n_arrows=20, seed=13)
        assert ok and worst > 0.5

    def test_anchor_rank_lifts_nodewise(self):
        ok, _ = current_anchor_rank_nodes(make_groupoid("rot-action"),
                                          GridSpec("circle", 8),
                                          n_arrows=10, seed=14)
        assert ok

    def test_etale_needs_equal_dimensions(self):
        grid = GridSpec("circle", 8)
        for name in ("pair-real1", "circle-bundle", "rot-action"):
            ok, _ = current_etale_nodes(make_groupoid(name), grid,
                                        n_arrows=3, seed=15)
            assert not ok, name
        assert current_etale_nodes(make_groupoid("z4-plane"), grid,
                                   n_arrows=3, seed=15)[0]

    def test_anchor_rank_dimension_guards(self):
        grid = GridSpec("circle", 8)
        # rank 2 needs two arrow dimensions; over a point no rank is needed
        ok, worst = current_anchor_rank_nodes(make_groupoid("unit-circle"),
                                              grid, n_arrows=3, seed=16)
        assert not ok and worst == 0.0
        assert current_anchor_rank_nodes(make_groupoid("so3-group"), grid,
                                         n_arrows=3, seed=16)[0]
