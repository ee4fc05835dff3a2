"""Negative controls: a broken input must turn a suite's records to fail.

Each row patches one input of one suite and shrinks the sample counts.
The suite must report ``fail`` for every record that names the broken
input and keep ``pass`` for the others.  The NaN rows write a single NaN
into one input, which a check that reduces with Python's ``max`` drops.
"""

import math

import numpy as np
import pytest

from currentgpd import ad, algebroids, localadd, suites
from currentgpd.ad import value
from currentgpd.algebroids import LieAlgebroid
from currentgpd.catalog import Euclidean
from currentgpd.gridmaps import GridMap
from currentgpd.groupoids import GROUPOIDS
from currentgpd.manifolds import SecondTangent, SmoothMap, Tangent
from currentgpd.suites import SuiteContext, run_suite

INSTANCES = ["pair-real1", "rot-action", "so3-group"]


def broken_groupoid(name, change):
    """A control that passes each groupoid GROUPOIDS[name] makes through
    change."""
    def patch(monkeypatch):
        make = GROUPOIDS[name]
        monkeypatch.setitem(GROUPOIDS, name, lambda: change(make()))

    return patch


def broken_output(name, change):
    """A control that passes each result of suites.<name> through change."""
    def patch(monkeypatch):
        make = getattr(suites, name)
        monkeypatch.setattr(suites, name,
                            lambda *args, **kw: change(make(*args, **kw)))

    return patch


def rarely_wrong(name, thr):
    """Groupoid ``name`` with its multiplication off by 1e-3 where
    g[0] > thr."""
    def change(gpd):
        mu_fn = gpd.mu_fn

        def broken(g, h):
            out = mu_fn(g, h)
            off = np.where(np.asarray(value(g[0])) > thr, 1e-3, 0.0)
            return [out[0] + off] + list(out[1:])

        gpd.mu_fn = broken
        return gpd

    return broken_groupoid(name, change)


def shifted_action(gpd):
    """rot-action's act_batch off by 1e-3 where the angle exceeds 3.5."""
    act = gpd.act_batch
    gpd.act_batch = lambda g, x: act(g, x) + np.where(g[..., :1] > 3.5,
                                                      1e-3, 0.0)
    return gpd


def nan_action(gpd):
    """rot-action's act_batch NaN in one entry: at the first node whose
    angle exceeds 3.5, the region shifted_action breaks."""
    act = gpd.act_batch

    def broken(g, x):
        out = act(g, x)
        hit = np.argwhere(g[..., 0] > 3.5)
        if len(hit):
            out[tuple(hit[0]) + (0,)] = np.nan
        return out

    gpd.act_batch = broken
    return gpd


def nan_quarter_turn(gpd):
    """z4-plane's quarter turn NaN in one entry, at the first node of each
    batch of points it moves; single points move exactly."""
    turn = gpd.finite_group.elements[1]
    act = turn.act

    def broken(amb):
        out = act(amb)
        if out.ndim > 1:
            out[0, 0] = np.nan
        return out

    turn.act = broken
    return gpd


def half_turn_lift(out):
    """Lifts that jump to the half-turned translate -x halfway along: the
    jump stays in the orbits and commutes with z4, so only coherence sees it."""
    amb = out.ambient.copy()
    amb[len(amb) // 2:] *= -1.0
    bad = GridMap(out.grid, out.target, amb, delta_coh=np.inf)
    bad.delta_coh = out.delta_coh
    return bad


def nan_lift(out):
    """Lifts with NaN in one entry, at their middle node."""
    amb = out.ambient.copy()
    amb[len(amb) // 2, 0] = np.nan
    bad = GridMap(out.grid, out.target, amb, delta_coh=np.inf)
    bad.delta_coh = out.delta_coh
    return bad


def lopsided_flip(monkeypatch):
    """A canonical flip that also scales the last slot by 1.001, so flipping
    twice is no longer the identity."""
    def flip(s):
        return SecondTangent(s.manifold, s.chart_id, s.x, s.z, s.y, 1.001 * s.w)

    monkeypatch.setattr(suites, "canonical_flip", flip)


def lift_on_the_next_sheet(out):
    """Lifts through exp_cover moved up one sheet, by 2 pi: the push-forward
    is unchanged, so only the comparison with the true lift sees it."""
    return GridMap(out.grid, out.target, out.ambient + 2 * math.pi,
                   delta_coh=out.delta_coh)


def repeated_identity(gpd):
    """z4-plane's element list with the identity listed twice."""
    grp = gpd.finite_group
    grp.elements = grp.elements + [grp.elements[grp.identity_index]]
    return gpd


def squaring_embedding(maps):
    """The double cover z -> z^2 in place of the circle embedding."""
    maps["circle-embed"] = maps["circle-square"]
    return maps


def flat_projection(maps):
    """plane-projection made constant where x > 2.5, so its rank drops there."""
    def fn(comps):
        x = comps[0]
        return [ad.where(np.asarray(value(x)) > 2.5, 2.5, x)]

    maps["plane-projection"] = SmoothMap(Euclidean(2), Euclidean(1), fn,
                                         name="plane-projection")
    return maps


def scaled_velocities(factor):
    """Local additions whose velocities are scaled by factor: their fiber
    derivative at zero is factor times the identity, and theta_inverse
    inverts the same sigma, so that their round trips still close."""
    def change(add):
        sigma_fn, am = add.sigma_fn, add.manifold.ambient_dim
        add.sigma_fn = lambda c: sigma_fn(list(c[:am])
                                          + [factor * v for v in c[am:]])
        return add

    return change


# rarely_wrong_inverse is off where the first chart velocity exceeds this;
# the round trips of local-addition draw it as 0.4 times a standard normal
RARE_VELOCITY = 0.8


def rarely_wrong_inverse(add):
    """A local addition whose closed-form theta_inverse is off by 1e-6 in
    every velocity component of each point where the first one exceeds
    RARE_VELOCITY."""
    theta_inverse = add.theta_inverse

    def off(p, q, **kwargs):
        t = theta_inverse(p, q, **kwargs)
        shift = np.where(t.vel[..., :1] > RARE_VELOCITY, 1e-6, 0.0)
        return Tangent(t.base, t.vel + shift)

    add.theta_inverse = off
    return add


def displaced_lift(add):
    """A lifted local addition whose values are 1e-9 off in their first
    ambient coordinate, at the zero section too."""
    sigma_fn = add.sigma_fn

    def off(comps):
        out = sigma_fn(comps)
        return [out[0] + 1e-9] + out[1:]

    add.sigma_fn = off
    return add


def shifted_newton(monkeypatch):
    """Newton's method returns its roots off by 1e-6 in every coordinate."""
    newton = localadd.newton

    def off(*args):
        x = newton(*args)
        return None if x is None else [xi + 1e-6 for xi in x]

    monkeypatch.setattr(localadd, "newton", off)


def forgetful_multiplication(gpd):
    """z4-plane composes (g, x) and (h, y) to (g, y), dropping h."""
    gpd.mu_fn = lambda g, h: [g[0]] + list(h[1:])
    return gpd


def negated_nodewise_bracket(monkeypatch):
    """Route two of Theorem D negated; a sign flip inside LieAlgebroid.bracket
    would reach both routes, so only the nodewise values are negated."""
    values = algebroids.current_bracket_values
    monkeypatch.setattr(algebroids, "current_bracket_values",
                        lambda *args: -values(*args))


def scaled_bracket(monkeypatch):
    """Every algebroid bracket scaled by 1.001: antisymmetry and Jacobi still
    hold, the Leibniz rule and the anchor morphism do not."""
    bracket = LieAlgebroid.bracket
    monkeypatch.setattr(
        LieAlgebroid, "bracket",
        lambda self, *args, **kw: bracket(self, *args, **kw).times_function(
            lambda xc: 1.001))


def perturbed_projector(monkeypatch):
    """Every kernel projector scaled by 1.001: a bracket's projection then
    leaves the kernel by 1e-3 of its length."""
    projector = LieAlgebroid.kernel_projector
    monkeypatch.setattr(
        LieAlgebroid, "kernel_projector",
        lambda self, *args: [[1.001 * e for e in row]
                             for row in projector(self, *args)])


# row id -> (patch, names in the broken records' check names, sample
# override or None).  A row id is a suite id, or "suite/record" for a
# further row of a suite.  At seed 7, 2 of the 400 flat pair-real1 triples,
# 1-3 of the 200 arrow paths on each grid and 2 of the 100 rot-action paths
# of pair-action-iso reach the broken region, so a check that skips rows
# misses it.  The budget row runs Theorem A at its default counts, so its
# record on 256 nodes checks only the 250 samples of its point budget.
CONTROLS = {
    "groupoid-axioms": (rarely_wrong("pair-real1", 1.99), {"pair-real1"}, 400),
    "current-groupoid-axioms": (rarely_wrong("pair-real1", 3.5),
                                {"pair-real1"}, 200),
    "current-groupoid-axioms/budget": (rarely_wrong("pair-real1", 3.5),
                                       {"pair-real1"}, None),
    "proper-etale-lifting": (broken_groupoid("z4-plane", repeated_identity),
                             {"proper-etale-lifting"}, 20),
    "embedding": (broken_output("catalog_maps", squaring_embedding),
                  {"embedding"}, None),
    "flip-identities": (lopsided_flip, {"flip-identities"}, None),
    "local-inverse": (broken_output("local_diffeo_inverse",
                                   lift_on_the_next_sheet),
                      {"local-inverse"}, 10),
    "local-addition": (broken_output("riemannian_local_addition",
                                    rarely_wrong_inverse),
                       {"round-trip"}, None),
    "local-addition/normalized-round-trip": (
        shifted_newton, {"normalized-round-trip"}, None),
    "local-addition/normalization": (
        broken_output("normalize", scaled_velocities(1.0 + 1e-5)),
        {"normalization"}, None),
    "local-addition/tangent-lift": (
        broken_output("tangent_local_addition", displaced_lift),
        {"tangent-lift"}, None),
    "pushforward-classifiers": (broken_output("catalog_maps", flat_projection),
                                {"plane-projection"}, 20),
    "tangent-diagram": (broken_output("riemannian_local_addition",
                                     scaled_velocities(1.001)),
                        {"tangent-diagram"}, None),
    "local-action-form": (broken_groupoid("z4-plane", forgetful_multiplication),
                          {"local-action-form"}, None),
    "theorem-D-pointwise-bracket": (negated_nodewise_bracket,
                                    {"pair-real2", "rot-action"}, 2),
    "theorem-D-pointwise-bracket/perturbed-projector": (
        perturbed_projector, {"pair-real2", "rot-action"}, 2),
    "algebroid-laws": (scaled_bracket, {"pair-real2", "rot-action"}, None),
    "algebroid-laws/perturbed-projector": (
        perturbed_projector, {"pair-real2", "rot-action", "sign-convention"},
        None),
    "pair-action-iso": (broken_groupoid("rot-action", shifted_action),
                        {"pair-action-iso"}, None),
    "path-lifting": (broken_output("path_lift", half_turn_lift),
                     {"path-lifting"}, 5),
}

# Rows with a single NaN.  A check that folds residuals with Python's max
# drops it (max(0.0, nan) is 0.0) and keeps ``pass``.
NAN_CONTROLS = {
    "pair-action-iso": (broken_groupoid("rot-action", nan_action),
                        {"pair-action-iso"}, None),
    "path-lifting": (broken_output("path_lift", nan_lift), {"path-lifting"}, 5),
    "local-action-form": (broken_groupoid("z4-plane", nan_quarter_turn),
                          {"local-action-form"}, None),
}

ROWS = ([pytest.param(s.partition("/")[0], *CONTROLS[s], id=s)
         for s in sorted(CONTROLS)]
        + [pytest.param(s, *NAN_CONTROLS[s], id=f"{s}-nan")
           for s in sorted(NAN_CONTROLS)])

# Suites with no control yet.  A suite added to SUITES fails the test below
# until it has a row in CONTROLS or here; this set should only shrink.
WITHOUT_CONTROL = {"not-tra-certificate", "not-proper-certificate",
                   "atlas-negative"}


def test_every_suite_has_a_control_or_is_listed_without():
    controlled = {s.partition("/")[0] for s in CONTROLS}
    assert not controlled & WITHOUT_CONTROL
    assert controlled | WITHOUT_CONTROL == set(suites.SUITES)


@pytest.mark.parametrize("suite, patch, broken, count", ROWS)
def test_suite_fails_under_its_control(suite, patch, broken, count,
                                       monkeypatch):
    ctx = SuiteContext(seed=7, instances=INSTANCES,
                       samples={suite: count} if count else {})
    assert {r.status for r in run_suite(suite, ctx)} == {"pass"}
    patch(monkeypatch)
    for r in run_suite(suite, ctx):
        want = "fail" if broken & set(r.check_name.split("/")) else "pass"
        assert r.status == want, r.check_name


def test_the_local_addition_control_breaks_few_round_trips():
    # on a draw apart from the suite's, a few percent of the round trips
    # reach the region where rarely_wrong_inverse is off, so a check that
    # samples sparsely or skips rows misses it
    rng = np.random.default_rng(2024)
    drawn = reached = 0
    for m, add in suites._catalog_additions().values():
        for _ in range(400):
            p = m.point_from_ambient(m.sample(rng))
            xi = rng.normal(size=m.dim) * 0.4
            if add.domain_fn(p.ambient, Tangent(p, xi).ambient_vel()):
                drawn += 1
                reached += bool(xi[0] > RARE_VELOCITY)
    assert 0.005 < reached / drawn < 0.05


def test_a_bracket_off_the_kernel_is_a_fail_record(monkeypatch):
    ctx = SuiteContext(seed=7, samples={"theorem-D-pointwise-bracket": 2})
    perturbed_projector(monkeypatch)
    for r in run_suite("theorem-D-pointwise-bracket", ctx):
        off = r.details["frame_projection_residual"]
        assert r.status == "fail" and off == r.max_residual > 1e-5


def test_path_lifting_reports_coherence(monkeypatch):
    ctx = SuiteContext(seed=7, instances=INSTANCES,
                       samples={"path-lifting": 5})
    record, = run_suite("path-lifting", ctx)
    assert record.details["coherent"] is True
    broken_output("path_lift", half_turn_lift)(monkeypatch)
    record, = run_suite("path-lifting", ctx)
    assert (record.status, record.details["coherent"]) == ("fail", False)
