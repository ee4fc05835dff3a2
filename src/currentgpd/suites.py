"""Named verification suites: the library's checkable claims as a registry.

Each suite runs one family of checks at fixed tolerances and returns
machine-readable records.  Counterexample suites pass when the obstruction
is confirmed ("obstructed-as-expected").
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import ad
from .algebroids import (algebroid_of_groupoid, current_bracket_two_ways,
                         law_residuals, per_node_coeffs,
                         sign_convention_check)
from .catalog import (Circle, Euclidean, RotationGroup, Sphere, Torus,
                      catalog_maps, exp_cover)
from .currents import (AXIOM_POINTS, build_current, current_etale_nodes,
                       pair_iso, action_iso, proper_etale_fiber_bound,
                       properness_failure_witness, transitivity_obstruction)
from .errors import (BranchAmbiguity, FrameProjectionError, GeometryError,
                     OutsideNeighborhood, UnknownSuite)
from .gridmaps import (GridMap, GridSpec, circle_winding_loop,
                       classify_pushforward, constant_grid_map,
                       local_diffeo_inverse, pushforward, pushforward_tangent,
                       random_chart_coeffs, random_grid_map,
                       section_from_chart_coeffs, seminorm_distance,
                       stacked_grid_map)
from .groupoids import GROUPOIDS, check_axioms, make_groupoid
from .localadd import (LocalAddition, fiber_derivative, normalize,
                       riemannian_local_addition, tangent_local_addition)
from .manifolds import (SecondTangent, SmoothMap, Tangent, canonical_flip,
                        merge_components, second_tangent_projection,
                        split_components, tangent_map)
from .orbifolds import (OrbitSpacePath, atlas_connectivity_negative_test,
                        lift_projection_residual, local_action_form,
                        path_lift)
from .report import CheckRecord, worst_residual
from .tolerances import DEFAULT, Tolerances


def derived_seed(*parts) -> int:
    """Stable across runs and platforms; hash() is salted, so not used."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 63 - 1)


@dataclass
class SuiteContext:
    seed: int
    grid: GridSpec = field(default_factory=lambda: GridSpec("circle", 64, 1))
    tol: Tolerances = DEFAULT
    instances: list = field(default_factory=lambda: list(GROUPOIDS))
    samples: dict = field(default_factory=dict)

    def seed_for(self, suite, *batch):
        return derived_seed(self.seed, suite, *batch)

    def count(self, suite):
        return int(self.samples.get(suite, SAMPLE_COUNTS[suite]))


def _left_the_kernel(err: FrameProjectionError):
    """(residual, details) of a bracket that left the kernel frame."""
    return err.residual, {"frame_projection_residual": err.residual}


def _record(name, anchor, status, residual, n, seed, details=None, certs=None):
    """A check record; its wall_time_ms holds the clock until run_suite."""
    return CheckRecord(check_name=name, paper_anchor=anchor, status=status,
                       max_residual=float(residual), n_samples=int(n),
                       seed=int(seed), wall_time_ms=time.perf_counter() * 1e3,
                       details=details or {}, certificates=certs or [])


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------

def suite_groupoid_axioms(ctx: SuiteContext):
    records = []
    for name in ctx.instances:
        seed = ctx.seed_for("groupoid-axioms", name)
        n = ctx.count("groupoid-axioms")
        rep = check_axioms(make_groupoid(name), n_samples=n, seed=seed)
        status = "pass" if rep.passed(ctx.tol.tol_chart) else "fail"
        records.append(_record(f"groupoid-axioms/{name}", "groupoid definition",
                               status, rep.max_violation, n, seed,
                               details=rep.violations))
    return records


def suite_current_groupoid_axioms(ctx: SuiteContext):
    """Theorem A on grids of 8, 64 and 256 nodes, at a fixed point budget.

    Every lifted law holds node by node, so what a record checks is its
    number of (sample, node) points.  A record on n nodes runs
    min(count, AXIOM_POINTS // n) samples, count being the configured or
    default sample count: by default n8 and n64 run 1000 and n256 runs
    250, the first draw of the stream that 1000 samples would take.  A
    configured count is thus a cap that the budget can lower further; each
    record's n_samples says what ran.
    """
    records = []
    for name in ctx.instances:
        gpd = make_groupoid(name)
        for n in (8, 64, 256):
            seed = ctx.seed_for("current-groupoid-axioms", name, n)
            cur = build_current(gpd, GridSpec(ctx.grid.kind, n, ctx.grid.ell))
            count = min(ctx.count("current-groupoid-axioms"),
                        AXIOM_POINTS // n)
            rep = cur.check_axioms(n_samples=count, seed=seed)
            status = "pass" if rep.passed(ctx.tol.tol_chart) else "fail"
            records.append(_record(f"current-groupoid-axioms/{name}/n{n}",
                                   "Theorem A", status, rep.max_violation,
                                   count, seed, details=rep.violations))
    return records


def suite_flip_identities(ctx: SuiteContext):
    """The flip is an involution and intertwines the two projections.

    Each manifold's points and chart slots are drawn first, point by point
    in the order of the draws; its second tangents are then checked as one
    stack, each in its point's chart with the bits it gets alone.
    """
    rng = np.random.default_rng(ctx.seed_for("flip-identities"))
    manifolds = [Circle(), Euclidean(2), Sphere(), RotationGroup()]
    worst_proj = 0.0
    exact = True
    n_total = 0
    for m in manifolds:
        vecs = 1000 // len(manifolds)
        amb, y, z, w = map(np.stack, zip(*[
            (m.sample(rng), *(rng.normal(size=m.dim) for _ in "yzw"))
            for _ in range(vecs)]))
        tm = m.tangent_bundle()
        proj = SmoothMap(tm, m, lambda c, k=m.ambient_dim: list(c[:k]),
                         name="bundle-projection")
        p = m.point_from_ambient(amb)
        s = SecondTangent(m, p.chart_id, p.coords, y, z, w)
        ss = canonical_flip(canonical_flip(s))
        exact = exact and all(
            np.array_equal(a, b) for a, b in zip(s.tuple4(), ss.tuple4()))
        # bundle projection = (tangent of the projection) after the flip
        fl = canonical_flip(s)
        base = tm.point_from_coords(
            fl.chart_id, np.concatenate([fl.x, fl.y], axis=-1))
        t = Tangent(base, np.concatenate([fl.z, fl.w], axis=-1))
        lhs = second_tangent_projection(s)
        rhs = tangent_map(proj, t, target_chart=s.chart_id)
        worst_proj = worst_residual(
            worst_proj, lhs.vel - rhs.vel,
            m.distance(lhs.base.ambient, rhs.base.ambient))
        n_total += len(amb)
    status = "pass" if exact and worst_proj <= 1e-12 else "fail"
    return [_record("flip-identities", "canonical flip", status, worst_proj,
                    n_total, ctx.seed_for("flip-identities"),
                    details={"involution_exact": exact})]


def _catalog_additions():
    out = {}
    for m in [Euclidean(2), Circle(), Sphere(), Torus(), RotationGroup()]:
        out[m.name] = (m, riemannian_local_addition(m))
    return out


def suite_local_addition(ctx: SuiteContext):
    records = []
    adds = _catalog_additions()
    seed = ctx.seed_for("local-addition")
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    # each manifold's 100 draws first, in their order; then one round trip
    # over the draws inside U, each with the bits it gets alone
    for name, (m, add) in adds.items():
        amb, xi = map(np.stack, zip(*[
            (m.sample(rng), rng.normal(size=m.dim) * 0.4) for _ in range(100)]))
        vel = Tangent(m.point_from_ambient(amb), xi).ambient_vel()
        inside = add.domain_fn(amb, vel)
        p = m.point_from_ambient(amb[inside])
        x = xi[inside]
        q = add.sigma(p.ambient, vel[inside])
        back = add.theta_inverse(p, q, tol=ctx.tol.tol_theta)
        z = add.sigma(p.ambient, Tangent(p, np.zeros_like(x)).ambient_vel())
        worst = worst_residual(worst, back.vel - x, m.distance(z, p.ambient))
        checked += len(x)
    status = "pass" if worst <= ctx.tol.tol_theta else "fail"
    records.append(_record("local-addition/round-trip", "local addition",
                           status, worst, checked, seed))

    # normalization, including a deliberately scaled input; each addition's
    # 100 draws first, then one stacked fiber derivative
    circle = Circle()
    base = riemannian_local_addition(circle)
    scaled = LocalAddition(
        circle,
        lambda comps: base.sigma_fn(list(comps[:2]) + [2.0 * c for c in comps[2:]]),
        lambda p, v: base.domain_fn(p, 2.0 * v), name="scaled")
    normed = normalize(scaled, tol_rank=ctx.tol.tol_rank)
    worst_norm = 0.0
    for add in [normed, normalize(base, tol_rank=ctx.tol.tol_rank)]:
        amb = np.stack([circle.sample(rng) for _ in range(100)])
        D = fiber_derivative(add, circle.point_from_ambient(amb),
                             h=ctx.tol.h_fd)
        worst_norm = worst_residual(worst_norm, D - np.eye(circle.dim))
    status = "pass" if worst_norm <= 1e-6 else "fail"
    records.append(_record("local-addition/normalization", "local addition",
                           status, worst_norm, 200, seed))

    # a normalized addition has no closed-form log: theta_inverse runs
    # Newton's method on all rows
    nrt_seed = ctx.seed_for("local-addition", "normalized-round-trip")
    nrt_rng = np.random.default_rng(nrt_seed)
    worst_nrt = 0.0
    amb, xi = map(np.stack, zip(*[
        (circle.sample(nrt_rng), nrt_rng.normal(size=circle.dim) * 0.4)
        for _ in range(100)]))
    p = circle.point_from_ambient(amb)
    q = normed.sigma(p.ambient, Tangent(p, xi).ambient_vel())
    back = normed.theta_inverse(p, q, tol=ctx.tol.tol_theta)
    worst_nrt = worst_residual(worst_nrt, back.vel - xi)
    status = "pass" if worst_nrt <= ctx.tol.tol_theta else "fail"
    records.append(_record("local-addition/normalized-round-trip",
                           "local addition", status, worst_nrt, 100,
                           nrt_seed))

    # tangent lift: zero tangents lie in U and map to their foot point; the
    # 50 draws first, then one stacked lift
    worst_lift = 0.0
    inside = True
    for name in ("circle", "real2"):
        m, add = adds[name]
        lifted = tangent_local_addition(add)
        tm = m.tangent_bundle()
        draws = np.stack([tm.sample(rng) for _ in range(50)])
        v = tm.point_from_ambient(draws)
        zero = Tangent(v, np.zeros_like(v.coords)).ambient_vel()
        ok = lifted.domain_fn(draws, zero)
        inside = inside and bool(np.all(ok))
        z = lifted.sigma(draws[ok], zero[ok])
        worst_lift = worst_residual(worst_lift, tm.distance(z, draws[ok]))
    status = "pass" if worst_lift <= ctx.tol.tol_theta and inside else "fail"
    records.append(_record("local-addition/tangent-lift", "local addition",
                           status, worst_lift, 100, seed))
    return records


def suite_tangent_diagram(ctx: SuiteContext):
    """Derivative of the push-forward = nodewise tangent map.

    Each map's grid maps and chart velocities are drawn first, in their
    order; the sections, the push-forward and the dual pass then run once
    over the stack of them, each node with the bits it gets alone.
    """
    maps = catalog_maps()
    chosen = ["circle-square", "circle-rotate", "exp-cover"]
    seed = ctx.seed_for("tangent-diagram")
    rng = np.random.default_rng(seed)
    # circle-square doubles the steps of a path: at 16 nodes they stay
    # within the circle's coherence bound
    grid = GridSpec(ctx.grid.kind, max(ctx.grid.n, 16), ctx.grid.ell)
    worst = 0.0
    reps = ctx.count("tangent-diagram")
    for name in chosen:
        f = maps[name]
        add = riemannian_local_addition(f.source)
        amb, coeffs = map(np.stack, zip(*[
            (random_grid_map(grid, f.source, rng).ambient,
             random_chart_coeffs(grid, f.source.dim, rng, scale=0.2))
            for _ in range(reps)]))
        gamma = GridMap(grid, f.source, amb)
        tau = section_from_chart_coeffs(gamma, coeffs)
        direct = pushforward_tangent(f, gamma, tau)
        # derivative of t -> f(sigma(t tau)) at 0, one dual pass for all nodes
        base = split_components(gamma.ambient)
        vel = split_components(tau.vel_ambient)
        _, eps = ad.jvp(lambda c: f.fn(add.sigma_fn(c)),
                        base + [0.0 * c for c in vel],
                        [0.0 * c for c in base] + vel)
        worst = worst_residual(worst, merge_components(eps)
                               - direct.vel_ambient)
    status = "pass" if worst <= ctx.tol.tol_fd else "fail"
    return [_record("tangent-diagram", "tangent identification", status,
                    worst, len(chosen) * reps, seed)]


def _lifts(*outcomes):
    """The lifts of stacked calls' walks, one stacked grid map per call.

    The first error raises, in the order that lone calls, one draw at a
    time, met the walks: walk b of every call before walk b + 1.  The
    stacks take no coherence check of their own.
    """
    for walk in zip(*outcomes):
        for out in walk:
            if isinstance(out, GeometryError):
                raise out
    return [GridMap(outs[0].grid, outs[0].target,
                    np.stack([lf.ambient for lf in outs]), delta_coh=np.inf)
            for outs in outcomes]


def suite_pushforward_classifiers(ctx: SuiteContext):
    maps = catalog_maps()
    expected = {
        "plane-projection": "submersion_on_trace",
        "line-inclusion": "immersion_on_trace",
        "exp-cover": "local_diffeo_on_trace",
        "circle-constant": "neither",
    }
    seed = ctx.seed_for("pushforward-classifiers")
    rng = np.random.default_rng(seed)
    grid = GridSpec("circle", 16, ctx.grid.ell)
    records = []
    reps = ctx.count("pushforward-classifiers")
    for name, want in expected.items():
        f = maps[name]
        # the map's draws in order, then one classification of their stack
        paths = [f.source.sample_path(grid.params(), rng, grid.closed)
                 for _ in range(reps)]
        got = classify_pushforward(f, GridMap(grid, f.source, np.stack(paths)),
                                   tol_rank=ctx.tol.tol_rank)
        ok = all(g.verdict == want for g in got)
        records.append(_record(f"pushforward-classifiers/{name}",
                               "Theorem E", "pass" if ok else "fail",
                               0.0, reps, seed, details={"expected": want}))
    return records


def suite_local_inverse(ctx: SuiteContext):
    f = exp_cover()
    line = f.source
    grid = ctx.grid
    seed = ctx.seed_for("local-inverse")
    rng = np.random.default_rng(seed)
    x = grid.params()
    gamma0 = GridMap(grid, line, np.zeros((grid.n, 1)))
    count = ctx.count("local-inverse")
    truths, starts = [], []
    for _ in range(count):
        amp = rng.uniform(0.1, 0.8)
        ph = rng.uniform(0, 2 * math.pi)
        off = rng.uniform(-3, 3)
        truths.append(off + amp * np.sin(x + ph))
        starts.append([off + amp * math.sin(ph)])
    # every draw's walk in one stacked call
    truth = GridMap(grid, line, np.stack(truths)[..., None])
    eta = pushforward(f, truth)
    got, = _lifts(local_diffeo_inverse(
        f, gamma0, eta, start=line.point_from_ambient(starts, chart_id=0),
        tol=ctx.tol.tol_theta))
    back = pushforward(f, got)
    # the lift inverts in every seminorm that the grid's ell tracks
    worst = worst_residual(*seminorm_distance(back, eta),
                           got.ambient - truth.ambient)
    rec_ok = worst <= ctx.tol.tol_theta
    # the winding-1 target admits no lift from any starting branch; a
    # winding number needs a loop, so the control runs on a circle grid
    loop_grid = GridSpec("circle", grid.n, grid.ell)
    idloop = circle_winding_loop(loop_grid, f.target, 1)
    loop0 = GridMap(loop_grid, line, np.zeros((grid.n, 1)))
    starts = line.point_from_ambient(
        2 * math.pi * (np.arange(32.0) - 16)[:, None], chart_id=0)
    rejections = sum(isinstance(o, (OutsideNeighborhood, BranchAmbiguity))
                     for o in local_diffeo_inverse(
                         f, loop0, stacked_grid_map(idloop, 32), start=starts))
    status = "pass" if rec_ok and rejections == 32 else "fail"
    return [_record("local-inverse", "Theorem E(c)", status, worst, count + 32,
                    seed, details={"rejections": rejections})]


def suite_not_tra_certificate(ctx: SuiteContext):
    records = []
    circle = Circle()
    seed = ctx.seed_for("not-tra-certificate")
    # solvable targets invert with tiny residual
    worst = 0.0
    for theta in (0.0, 0.7, -1.2):
        grid = GridSpec("circle", 64, ctx.grid.ell)
        cert = transitivity_obstruction(grid, target=(
            constant_grid_map(grid, circle.point_at_angle(0.0)),
            constant_grid_map(grid, circle.point_at_angle(theta))))
        worst = worst_residual(worst, cert.max_residual)
        if cert.verdict != "solvable":
            return [_record("not-tra-certificate", "winding obstruction",
                            "fail", worst, 3, seed)]
    certs = []
    stable = True
    # exhaustive branch confirmation at the base grid; refinements re-check
    # the degree obstruction with spot lifting
    for n, n_branches in ((64, 32), (256, 2), (1024, 2)):
        cert = transitivity_obstruction(GridSpec("circle", n, ctx.grid.ell),
                                        seed=seed, n_branches=n_branches)
        certs.append(cert)
        stable = stable and cert.verdict == "obstructed" \
            and cert.witness_data["required_winding"] == -1
    status = "obstructed-as-expected" if stable and worst <= ctx.tol.tol_theta \
        else "fail"
    records.append(_record("not-tra-certificate", "winding obstruction",
                           status, worst, 3 + 3, seed, certs=certs))
    return records


def suite_not_proper_certificate(ctx: SuiteContext):
    seed = ctx.seed_for("not-proper-certificate")
    grid = GridSpec("circle", max(ctx.grid.n, 256), max(ctx.grid.ell, 1))
    cert = properness_failure_witness(grid)
    ok = cert.verdict == "unbounded-derivatives"
    return [_record("not-proper-certificate", "properness counterexample",
                    "obstructed-as-expected" if ok else "fail",
                    cert.max_residual, 4, seed, certs=[cert])]


def suite_proper_etale_lifting(ctx: SuiteContext):
    gpd = make_groupoid("z4-plane")
    seed = ctx.seed_for("proper-etale-lifting")
    n_arrows = ctx.count("proper-etale-lifting")
    ok_nodes, worst = current_etale_nodes(gpd, ctx.grid, n_arrows=n_arrows,
                                          seed=seed,
                                          tol_rank=ctx.tol.tol_rank)
    cert = proper_etale_fiber_bound(gpd, ctx.grid, n_pairs=n_arrows,
                                    seed=seed, tol=ctx.tol.tol_chart)
    wd = cert.witness_data
    # a same-orbit pair lifts through every element at orbit level, and a
    # generic one through exactly one element exactly
    ok = (cert.verdict == "bounded" and wd["max_lifts"] == len(gpd.finite_group)
          and wd["max_exact_matches"] == 1)
    status = "pass" if ok_nodes and ok else "fail"
    return [_record("proper-etale-lifting", "Theorem C", status,
                    cert.max_residual, 2 * n_arrows, seed,
                    details={"min_source_jacobian": worst,
                             "max_lifts": wd["max_lifts"]},
                    certs=[cert])]


def suite_theorem_d(ctx: SuiteContext):
    records = []
    grid = GridSpec("circle", 8, ctx.grid.ell)
    for name in ("pair-real2", "rot-action"):
        gpd = make_groupoid(name)
        alg = algebroid_of_groupoid(gpd, tol_rank=ctx.tol.tol_rank,
                                    tol_bracket=ctx.tol.tol_bracket)
        seed = ctx.seed_for("theorem-D-pointwise-bracket", name)
        rng = np.random.default_rng(seed)
        count = ctx.count("theorem-D-pointwise-bracket")
        bases, draws = [], []
        for _ in range(count):
            bases.append(random_grid_map(grid, gpd.base, rng))
            draws.append([alg.random_polynomial_coeffs(rng) for _ in "XY"])
        # the samples' nodes on one axis, each with its own coefficients
        X, Y = (alg.polynomial_section(per_node_coeffs(d, grid.n), name=s)
                for d, s in zip(zip(*draws), "XY"))
        details = {}
        try:
            worst = current_bracket_two_ways(gpd, grid, X, Y, bases,
                                             tol_bracket=ctx.tol.tol_bracket)
        except FrameProjectionError as e:
            worst, details = _left_the_kernel(e)
        status = "pass" if worst <= ctx.tol.tol_bracket else "fail"
        records.append(_record(f"theorem-D-pointwise-bracket/{name}",
                               "Theorem D", status, worst, count, seed,
                               details=details))
    return records


def suite_algebroid_laws(ctx: SuiteContext):
    records = []
    seed = ctx.seed_for("algebroid-laws")
    rng = np.random.default_rng(seed)
    for name in ("pair-real2", "rot-action"):
        gpd = make_groupoid(name)
        alg = algebroid_of_groupoid(gpd, tol_rank=ctx.tol.tol_rank,
                                    tol_bracket=ctx.tol.tol_bracket)
        draws, points = [], []
        for _ in range(10):
            draws.append([alg.random_polynomial_coeffs(rng) for _ in "XYZ"])
            points.extend(gpd.base.sample(rng) for _ in range(3))
        # the 30 points on one node axis, each with its triple's sections
        X, Y, Z = (alg.polynomial_section(per_node_coeffs(d, 3), name=s)
                   for d, s in zip(zip(*draws), "XYZ"))
        try:
            anti, jac, leib, morph = map(worst_residual, law_residuals(
                alg, X, Y, Z, list(np.stack(points).T)))
            worst = worst_residual(anti, jac, leib, morph)
            details = {"antisymmetry": anti, "jacobi": jac, "leibniz": leib,
                       "anchor_morphism": morph}
        except FrameProjectionError as e:
            worst, details = _left_the_kernel(e)
        status = "pass" if worst <= ctx.tol.tol_bracket else "fail"
        records.append(_record(f"algebroid-laws/{name}",
                               "algebroid definition", status, worst, 30,
                               seed, details=details))
    # the group-as-groupoid bracket sign, measured not assumed
    try:
        sgn = sign_convention_check(RotationGroup(), seed=seed,
                                    tol_bracket=ctx.tol.tol_bracket)
        status = "pass" if sgn.consistent else "fail"
        worst, details = 0.0, {"sign": sgn.sign, "note": sgn.note}
    except FrameProjectionError as e:
        worst, details = _left_the_kernel(e)
        status = "fail"
    records.append(_record("algebroid-laws/sign-convention", "bracket sign",
                           status, worst, 4, seed, details=details))
    return records


def suite_local_action_form(ctx: SuiteContext):
    gpd = make_groupoid("z4-plane")
    seed = ctx.seed_for("local-action-form")
    x = gpd.base.point_from_ambient([0.0, 0.0])
    form = local_action_form(gpd, x, n_check=500, seed=seed,
                             tol=ctx.tol.tol_chart)
    worst = worst_residual(form.action_law_residual,
                           form.phi_bijectivity_residual,
                           form.phi_multiplicativity_residual)
    ok = worst <= 1e-9 and len(form.isotropy) == 4
    z2 = make_groupoid("z2-line")
    form2 = local_action_form(z2, z2.base.point_from_ambient([0.0]),
                              n_check=500, seed=seed, tol=ctx.tol.tol_chart)
    ok = ok and len(form2.isotropy) == 2
    return [_record("local-action-form", "local action form",
                    "pass" if ok else "fail", worst, 1000, seed,
                    details={"radius": form.radius,
                             "halvings": form.halvings,
                             "isotropy_order": len(form.isotropy)})]


def suite_path_lifting(ctx: SuiteContext):
    gpd = make_groupoid("z4-plane")
    grp = gpd.finite_group
    seed = ctx.seed_for("path-lifting")
    rng = np.random.default_rng(seed)
    grid = GridSpec("interval", max(16, ctx.grid.n // 4))
    count = ctx.count("path-lifting")
    nodes = np.arange(grid.n)
    reps, firsts, seconds, turns = [], [], [], []
    for _ in range(count):
        # fixed-point-free path: radius bounded away from the origin
        t = grid.params()
        r = 1.0 + 0.3 * np.sin(2 * math.pi * t * rng.uniform(0.5, 1.5))
        a = rng.uniform(0, 2 * math.pi) + 0.9 * np.sin(
            2 * math.pi * t + rng.uniform(0, 6))
        pts = np.stack([r * np.cos(a), r * np.sin(a)], axis=-1)
        # each node's representative is a random translate: the elements
        # are drawn node by node, then applied to all nodes at once
        picks = [int(rng.integers(4)) for _ in nodes]
        reps.append(np.stack([e.act(pts) for e in grp.elements])[picks, nodes])
        # the second lift starts at the translate of the first by g
        turns.append(int(rng.integers(1, 4)))
        firsts.append(pts[0])
        seconds.append(grp.elements[turns[-1]].act(pts[0]))
    # every path's two lifts as two stacked calls
    path = OrbitSpacePath(grid, np.stack(reps))
    outcomes = [path_lift(gpd, path,
                          gpd.base.point_from_ambient(starts, chart_id=0),
                          tol=ctx.tol.tol_chart)
                for starts in (firsts, seconds)]
    lift, lift2 = _lifts(*outcomes)
    worst = lift_projection_residual(gpd, path, lift)
    turned = np.stack([e.act(lift.ambient) for e in grp.elements])
    equein = worst_residual(lift2.ambient - turned[turns, np.arange(count)])
    # a lift that jumps to another translate stays in the orbits
    coherent = all(bool(np.all(np.max(lifts.step_sizes(), axis=-1)
                               < [lf.delta_coh for lf in outs]))
                   for lifts, outs in zip((lift, lift2), outcomes))
    ok = worst <= ctx.tol.tol_theta and equein <= 1e-12 and coherent
    return [_record("path-lifting", "path lifting", "pass" if ok else "fail",
                    worst, 2 * count, seed,
                    details={"equivariance": equein, "coherent": coherent})]


def suite_atlas_negative(ctx: SuiteContext):
    seed = ctx.seed_for("atlas-negative")
    certs = [atlas_connectivity_negative_test(GridSpec("circle", n))
             for n in (64, 256)]
    ok = all(c.verdict == "obstructed" for c in certs)
    return [_record("atlas-negative", "atlas obstruction",
                    "obstructed-as-expected" if ok else "fail", 0.0, 2, seed,
                    certs=certs)]


def suite_pair_action_iso(ctx: SuiteContext):
    seed = ctx.seed_for("pair-action-iso")
    grid = GridSpec("circle", 16, ctx.grid.ell)
    r1 = pair_iso(grid, Circle(), n_samples=100, seed=seed,
                  tol=ctx.tol.tol_chart)
    r2 = action_iso(grid, make_groupoid("rot-action"), n_samples=100,
                    seed=seed, tol=ctx.tol.tol_chart)
    worst = worst_residual(r1, r2)
    return [_record("pair-action-iso", "structural isomorphisms",
                    "pass" if worst <= 1e-10 else "fail", worst, 200, seed,
                    details={"pair": r1, "action": r2})]


def suite_embedding(ctx: SuiteContext):
    """Push-forward of the circle embedding: injective, with exact retraction."""
    maps = catalog_maps()
    e = maps["circle-embed"]
    seed = ctx.seed_for("embedding")
    rng = np.random.default_rng(seed)
    grid = ctx.grid
    worst = 0.0
    injective = True
    for _ in range(100):
        gamma = random_grid_map(grid, e.source, rng)
        img = pushforward(e, gamma, delta_coh=np.inf)
        # retraction onto the unit circle recovers the input
        norm = np.linalg.norm(img.ambient, axis=-1, keepdims=True)
        back = img.ambient / norm
        worst = worst_residual(worst, e.source.distance(back, gamma.ambient))
        # the antipodal map -gamma differs from gamma at every node
        anti = pushforward(e, GridMap(grid, e.source, -gamma.ambient),
                           delta_coh=np.inf)
        injective = injective and float(np.max(np.abs(
            anti.ambient - img.ambient))) > 1e-12
    ok = worst <= ctx.tol.tol_theta and injective
    return [_record("embedding", "Theorem F", "pass" if ok else "fail",
                    worst, 100, seed)]


# Default sample counts of the suites that read one; a config's
# "samples" may set only these.  For current-groupoid-axioms the count is a
# cap per record: a record on n nodes runs at most AXIOM_POINTS // n
# samples (250 on 256 nodes), and its n_samples says what ran.
SAMPLE_COUNTS = {
    "groupoid-axioms": 1000,
    "current-groupoid-axioms": 1000,
    "tangent-diagram": 50,
    "pushforward-classifiers": 100,
    "local-inverse": 100,
    "proper-etale-lifting": 200,
    "theorem-D-pointwise-bracket": 50,
    "path-lifting": 100,
}


# The suites that loop over ctx.instances; each instance's records depend
# only on its own name, so a run may split them into one task per instance.
PER_INSTANCE = ("groupoid-axioms", "current-groupoid-axioms")


SUITES = {
    "groupoid-axioms": ("groupoid definition", suite_groupoid_axioms),
    "current-groupoid-axioms": ("Theorem A", suite_current_groupoid_axioms),
    "flip-identities": ("canonical flip", suite_flip_identities),
    "local-addition": ("local addition", suite_local_addition),
    "tangent-diagram": ("tangent identification", suite_tangent_diagram),
    "pushforward-classifiers": ("Theorem E", suite_pushforward_classifiers),
    "local-inverse": ("Theorem E(c)", suite_local_inverse),
    "not-tra-certificate": ("winding obstruction", suite_not_tra_certificate),
    "not-proper-certificate": ("properness counterexample",
                               suite_not_proper_certificate),
    "proper-etale-lifting": ("Theorem C", suite_proper_etale_lifting),
    "theorem-D-pointwise-bracket": ("Theorem D", suite_theorem_d),
    "algebroid-laws": ("algebroid definition", suite_algebroid_laws),
    "local-action-form": ("local action form", suite_local_action_form),
    "path-lifting": ("path lifting", suite_path_lifting),
    "atlas-negative": ("atlas obstruction", suite_atlas_negative),
    "pair-action-iso": ("structural isomorphisms", suite_pair_action_iso),
    "embedding": ("Theorem F", suite_embedding),
}


def run_suite(suite_id: str, ctx: SuiteContext):
    if suite_id not in SUITES:
        raise UnknownSuite(f"no suite registered under {suite_id!r}")
    _, fn = SUITES[suite_id]
    prev = time.perf_counter() * 1e3
    records = fn(ctx)
    # each record's time runs from the previous record (or the suite start)
    for r in records:
        r.wall_time_ms, prev = r.wall_time_ms - prev, r.wall_time_ms
    return records
