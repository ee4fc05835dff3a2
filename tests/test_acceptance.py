"""The acceptance gate: every checkable claim at its stated tolerance.

Each test prints one pass/fail line (collected again in the terminal
summary).  Counterexample criteria pass exactly when the obstruction is
confirmed.
"""

import json
import math
import re

import numpy as np

from conftest import record_criterion

from currentgpd import ad
from currentgpd.algebroids import (algebroid_of_groupoid,
                                   current_bracket_two_ways,
                                   vector_field_bracket)
from currentgpd.catalog import (Circle, Euclidean, RotationGroup, Sphere,
                                Torus, catalog_maps, exp_cover)
from currentgpd.currents import (build_current, current_etale_nodes,
                                 proper_etale_fiber_bound,
                                 properness_failure_witness,
                                 transitivity_obstruction)
from currentgpd.errors import BranchAmbiguity, OutsideNeighborhood
from currentgpd.gridmaps import (GridMap, GridSpec, circle_identity_loop,
                                 classify_pushforward, constant_grid_map,
                                 local_diffeo_inverse, pushforward,
                                 pushforward_tangent, random_grid_map,
                                 random_section, seminorm_distance)
from currentgpd.groupoids import GROUPOIDS, make_groupoid
from currentgpd.localadd import (LocalAddition, fiber_derivative, normalize,
                                 riemannian_local_addition,
                                 tangent_local_addition)
from currentgpd.manifolds import (SecondTangent, SmoothMap, Tangent,
                                  canonical_flip, merge_components,
                                  second_tangent_projection, tangent_map)
from currentgpd.orbifolds import (OrbitSpacePath,
                                  atlas_connectivity_negative_test,
                                  lift_projection_residual, path_lift)

SEED = 20240817


def test_criterion_01_lifted_axioms():
    worst = 0.0
    for name in GROUPOIDS:
        gpd = make_groupoid(name)
        for n in (8, 64, 256):
            rep = build_current(gpd, GridSpec("circle", n)).check_axioms(
                n_samples=1000, seed=SEED)
            worst = max(worst, rep.max_violation)
    ok = worst <= 1e-9
    record_criterion(1, "lifted groupoid axioms over grids {8,64,256}", ok,
                     worst)
    assert ok


def test_criterion_02_flip_identities():
    rng = np.random.default_rng(SEED)
    manifolds = [Circle(), Euclidean(2), Sphere(), RotationGroup()]
    worst = 0.0
    exact = True
    for i in range(1000):
        m = manifolds[i % len(manifolds)]
        p = m.point_from_ambient(m.sample(rng))
        s = SecondTangent(m, p.chart_id, np.asarray(p.coords),
                          rng.normal(size=m.dim), rng.normal(size=m.dim),
                          rng.normal(size=m.dim))
        ss = canonical_flip(canonical_flip(s))
        exact = exact and all(np.array_equal(a, b)
                              for a, b in zip(s.tuple4(), ss.tuple4()))
        tm = m.tangent_bundle()
        proj = SmoothMap(tm, m, lambda c, k=m.ambient_dim: list(c[:k]))
        fl = canonical_flip(s)
        base = tm.point_from_coords(fl.chart_id, np.concatenate([fl.x, fl.y]))
        t = Tangent(base, np.concatenate([fl.z, fl.w]))
        lhs = second_tangent_projection(s)
        rhs = tangent_map(proj, t, target_chart=s.chart_id)
        worst = max(worst, float(np.max(np.abs(lhs.vel - rhs.vel))),
                    float(m.distance(lhs.base.ambient, rhs.base.ambient)))
    ok = exact and worst <= 1e-12
    record_criterion(2, "flip involution exact, projection identity", ok,
                     worst)
    assert ok


def test_criterion_03_local_additions():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for m in [Euclidean(2), Circle(), Sphere(), Torus(), RotationGroup()]:
        add = riemannian_local_addition(m)
        done = 0
        while done < 100:
            p = m.point_from_ambient(m.sample(rng))
            xi = rng.normal(size=m.dim) * 0.5
            t = Tangent(p, xi)
            if not add.contains(t):
                continue
            q = add.sigma(t)
            z = add.sigma(Tangent(p, np.zeros(m.dim)))
            worst = max(worst, float(m.distance(z.ambient, p.ambient)))
            back = add.theta_inverse(p, q)
            if m.dim:
                worst = max(worst, float(np.max(np.abs(back.vel - xi))))
            done += 1
    ok_round = worst <= 1e-10

    circle = Circle()
    base = riemannian_local_addition(circle)
    scaled = LocalAddition(
        circle,
        lambda comps: base.sigma_fn(list(comps[:2])
                                    + [2.0 * c for c in comps[2:]]),
        base.domain_fn, fiber_radius=base.fiber_radius / 2, name="scaled")
    worst_norm = 0.0
    for add in [normalize(scaled), normalize(base)]:
        for _ in range(100):
            p = circle.point_from_ambient(circle.sample(rng))
            D = fiber_derivative(add, p)
            worst_norm = max(worst_norm, float(np.max(np.abs(D - np.eye(1)))))
    ok_norm = worst_norm <= 1e-6

    worst_lift = 0.0
    for name in ("circle", "real2"):
        m = Circle() if name == "circle" else Euclidean(2)
        lifted = tangent_local_addition(riemannian_local_addition(m))
        tm = m.tangent_bundle()
        for _ in range(50):
            v = tm.point_from_ambient(tm.sample(rng))
            z = lifted.sigma(Tangent(v, np.zeros(tm.dim)))
            worst_lift = max(worst_lift, float(tm.distance(z.ambient,
                                                           v.ambient)))
    ok_lift = worst_lift <= 1e-10

    ok = ok_round and ok_norm and ok_lift
    record_criterion(3, "local additions: round trip, normalization, lift",
                     ok, max(worst, worst_norm, worst_lift))
    assert ok


def test_criterion_04_tangent_diagram():
    maps = catalog_maps()
    rng = np.random.default_rng(SEED)
    grid = GridSpec("circle", 64)
    worst = 0.0
    for name in ("circle-square", "circle-rotate", "exp-cover"):
        f = maps[name]
        add = riemannian_local_addition(f.source)
        for _ in range(50):
            gamma = random_grid_map(grid, f.source, rng)
            tau = random_section(gamma, rng, scale=0.2)
            direct = pushforward_tangent(f, gamma, tau)
            base_c = [ad.Dual(c, 0.0 * c)
                      for c in np.moveaxis(gamma.ambient, -1, 0)]
            vel_c = [ad.Dual(0.0 * c, c)
                     for c in np.moveaxis(tau.vel_ambient, -1, 0)]
            out = f.fn(add.sigma_fn(base_c + vel_c))
            eps = merge_components([o.ep for o in out])
            worst = max(worst, float(np.max(np.abs(eps - direct.vel_ambient))))
    ok = worst <= 1e-6
    record_criterion(4, "tangent of push-forward matches nodewise derivative",
                     ok, worst)
    assert ok


def test_criterion_05_block_classifier_and_inverse():
    maps = catalog_maps()
    rng = np.random.default_rng(SEED)
    grid = GridSpec("circle", 16)
    expected = {
        "plane-projection": "submersion_on_trace",
        "line-inclusion": "immersion_on_trace",
        "exp-cover": "local_diffeo_on_trace",
        "circle-constant": "neither",
    }
    match = True
    for name, want in expected.items():
        f = maps[name]
        for _ in range(100):
            gamma = random_grid_map(grid, f.source, rng)
            match = match and classify_pushforward(f, gamma).verdict == want

    f = exp_cover()
    line = f.source
    grid64 = GridSpec("circle", 64)
    gamma0 = GridMap(grid64, line, np.zeros((grid64.n, 1)))
    xs = grid64.params()
    worst = 0.0
    for _ in range(100):
        off = rng.uniform(-3, 3)
        truth = GridMap(grid64, line,
                        (off + rng.uniform(0.1, 0.8)
                         * np.sin(xs + rng.uniform(0, 7)))[:, None])
        eta = pushforward(f, truth)
        start = line.point_from_ambient([truth.ambient[0, 0]])
        got = local_diffeo_inverse(f, gamma0, eta, start=start)
        back = pushforward(f, got)
        worst = max(worst, seminorm_distance(back, eta).order0)
    solvable_ok = worst <= 1e-10

    idloop = circle_identity_loop(grid64, f.target)
    rejections = 0
    for k in range(32):
        start = line.point_from_ambient([2 * math.pi * (k - 16)])
        try:
            local_diffeo_inverse(f, gamma0, idloop, start=start)
        except (OutsideNeighborhood, BranchAmbiguity):
            rejections += 1
    ok = match and solvable_ok and rejections == 32
    record_criterion(5, "rank classifiers and local-inverse reconstruction",
                     ok, worst)
    assert ok


def test_criterion_06_transitivity_obstruction():
    circle = Circle()
    worst = 0.0
    solvable_ok = True
    for theta in (0.4, -0.9):
        grid = GridSpec("circle", 64)
        cert = transitivity_obstruction(grid, target=(
            constant_grid_map(grid, circle.point_at_angle(0.0)),
            constant_grid_map(grid, circle.point_at_angle(theta))))
        solvable_ok = solvable_ok and cert.verdict == "solvable"
        worst = max(worst, cert.max_residual)
    stable = True
    for n, nb in ((64, 32), (256, 2), (1024, 2)):
        cert = transitivity_obstruction(GridSpec("circle", n), seed=SEED,
                                        n_branches=nb)
        stable = stable and cert.verdict == "obstructed" \
            and abs(cert.witness_data["required_winding"]) == 1 \
            and cert.witness_data["achievable_winding"] == 0
    ok = solvable_ok and worst <= 1e-10 and stable
    record_criterion(6, "transitivity obstruction certificate, refinements",
                     ok, worst)
    assert ok


def test_criterion_07_properness_failure():
    cert = properness_failure_witness(GridSpec("circle", 256))
    fam = cert.witness_data["family"]
    growth = all(abs(fam[k]["order1_seminorm"] - k) <= 0.05 * k
                 for k in (1, 2, 4, 8))
    separated = cert.witness_data["pairwise_order0_min"] >= 1.0
    ok = growth and separated and cert.max_residual <= 1e-12
    record_criterion(7, "equicontinuity-failure certificate in one fiber",
                     ok, cert.max_residual)
    assert ok


def test_criterion_08_etale_lifting():
    gpd = make_groupoid("z4-plane")
    grid = GridSpec("circle", 16)
    nodes_ok, worst_sv = current_etale_nodes(gpd, grid, n_arrows=200,
                                             seed=SEED)
    cert = proper_etale_fiber_bound(gpd, grid, n_pairs=200, seed=SEED)
    wd = cert.witness_data
    bound_ok = (cert.verdict == "bounded" and wd["max_lifts"] == 4
                and wd["n_full"] + wd["n_empty"] == 200
                and wd["max_exact_matches"] <= 4)
    ok = nodes_ok and bound_ok
    record_criterion(8, "source invertible nodewise; fibers bounded by |group|",
                     ok, cert.max_residual)
    assert ok


def test_criterion_09_pointwise_bracket():
    rng = np.random.default_rng(SEED)
    grid = GridSpec("circle", 8)
    worst = 0.0
    for name in ("pair-real2", "rot-action"):
        gpd = make_groupoid(name)
        alg = algebroid_of_groupoid(gpd)
        for _ in range(50):
            base = random_grid_map(grid, gpd.base, rng)
            X = alg.random_polynomial_section(rng, "X")
            Y = alg.random_polynomial_section(rng, "Y")
            worst = max(worst, current_bracket_two_ways(gpd, grid, X, Y, base))
    laws = 0.0
    for name in ("pair-real2", "rot-action"):
        gpd = make_groupoid(name)
        alg = algebroid_of_groupoid(gpd)
        for _ in range(5):
            X = alg.random_polynomial_section(rng, "X")
            Y = alg.random_polynomial_section(rng, "Y")
            Z = alg.random_polynomial_section(rng, "Z")
            x = list(gpd.base.sample(rng))
            a = merge_components(alg.bracket(X, Y).vector_fn(x))
            b = merge_components(alg.bracket(Y, X).vector_fn(x))
            laws = max(laws, float(np.max(np.abs(a + b))))
            s = (merge_components(
                    alg.bracket(X, alg.bracket(Y, Z)).vector_fn(x))
                 + merge_components(alg.bracket(Z, alg.bracket(X, Y)).vector_fn(x))
                 + merge_components(alg.bracket(Y, alg.bracket(Z, X)).vector_fn(x)))
            laws = max(laws, float(np.max(np.abs(s))))
            vf = vector_field_bracket(gpd.base,
                                      lambda c: alg.anchor_vector(X, list(c)),
                                      lambda c: alg.anchor_vector(Y, list(c)))
            laws = max(laws, float(np.max(np.abs(
                merge_components(alg.anchor_vector(alg.bracket(X, Y), x))
                - merge_components(vf(x))))))
    ok = worst <= 1e-5 and laws <= 1e-5
    record_criterion(9, "current bracket two ways; bracket laws", ok,
                     max(worst, laws))
    assert ok


def test_criterion_10_local_action_form():
    from currentgpd.orbifolds import local_action_form
    gpd = make_groupoid("z4-plane")
    form = local_action_form(gpd, gpd.base.point_from_ambient([0.0, 0.0]),
                             n_check=500, seed=SEED)
    worst = max(form.action_law_residual, form.phi_bijectivity_residual,
                form.phi_multiplicativity_residual)
    ok = worst <= 1e-9 and len(form.isotropy) == 4
    record_criterion(10, "local action-groupoid form at the fixed point", ok,
                     worst)
    assert ok


def test_criterion_11_path_lifting():
    gpd = make_groupoid("z4-plane")
    grp = gpd.finite_group
    rng = np.random.default_rng(SEED)
    grid = GridSpec("interval", 24)
    worst = 0.0
    equiv = 0.0
    for _ in range(100):
        t = grid.params()
        r = 1.0 + 0.3 * np.sin(2 * math.pi * t * rng.uniform(0.5, 1.5))
        a = rng.uniform(0, 2 * math.pi) + 0.9 * np.sin(
            2 * math.pi * t + rng.uniform(0, 6))
        pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
        reps = pts.copy()
        for i in range(grid.n):
            reps[i] = grp.elements[int(rng.integers(4))].act(reps[i])
        path = OrbitSpacePath(grid, reps, grp)
        lift = path_lift(gpd, path, gpd.base.point_from_ambient(pts[0]))
        worst = max(worst, lift_projection_residual(gpd, path, lift))
        g = grp.elements[int(rng.integers(1, 4))]
        lift2 = path_lift(gpd, path,
                          gpd.base.point_from_ambient(g.act(pts[0])))
        equiv = max(equiv, float(np.max(np.abs(lift2.ambient
                                               - g.act(lift.ambient)))))
    atlas_ok = all(
        atlas_connectivity_negative_test(GridSpec("circle", n)).verdict
        == "obstructed" for n in (64, 256))
    ok = worst <= 1e-10 and equiv <= 1e-12 and atlas_ok
    record_criterion(11, "orbit path lifting and the atlas obstruction", ok,
                     max(worst, equiv))
    assert ok


def test_criterion_12_determinism(tmp_path):
    from currentgpd.cli import main
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": SEED,
        "suites": ["flip-identities", "pair-action-iso",
                   "not-proper-certificate", "local-action-form",
                   "atlas-negative"]}))
    texts = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        text = re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": 0',
                      out.read_text())
        texts.append(text)
    ok = texts[0] == texts[1]
    record_criterion(12, "re-runs byte-identical modulo timing fields", ok)
    assert ok
