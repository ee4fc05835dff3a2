import math
import tracemalloc

import numpy as np
import pytest

from currentgpd.catalog import Circle, Euclidean, RotationGroup
from currentgpd.currents import build_current
from currentgpd.errors import NotComposable, SamplingFailure, Unsupported
from currentgpd.gridmaps import GridMap, GridSpec
from currentgpd import groupoids, manifolds
from currentgpd.groupoids import (GROUPOIDS, AxiomReport, LieGroupoid,
                                  axiom_violations, check_axioms,
                                  classify_etale, classify_locally_transitive,
                                  cyclic_rotation_group, isotropy_group,
                                  make_groupoid, reflection_group_1d,
                                  sample_composable_triple, unit_groupoid)
from currentgpd.manifolds import component_major, split_components

from conftest import close_to


def at(f, p):
    """The point f(p) of a structure map f."""
    return f.target.point_from_ambient(f.apply_batch(p.ambient))


def mu(gpd, g, h):
    """g h for arrows with alpha(g) = beta(h): h is moved onto the target
    alpha(g), as CurrentGroupoid.mu_star does, and multiplied with mu_batch."""
    h_amb = gpd.project_to_beta(h.ambient[None],
                                gpd.alpha_batch(g.ambient[None]))
    return gpd.arrows.point_from_ambient(gpd.mu_batch(g.ambient[None],
                                                      h_amb)[0])


class TestCompose:
    def test_pair_groupoid_multiplication(self):
        pg = make_groupoid("pair-real1")
        g = pg.arrows.point_from_ambient([1.0, 2.0])
        h = pg.arrows.point_from_ambient([2.0, 5.0])
        assert np.allclose(mu(pg, g, h).ambient, [1.0, 5.0])

    def test_unit_groupoid_is_trivial(self):
        ug = make_groupoid("unit-circle")
        x = ug.arrows.point_from_ambient(Circle().point_at_angle(0.4).ambient)
        assert close_to(mu(ug, x, x), x)

    def test_mismatched_endpoints_rejected(self):
        # the composability gate of the library is CurrentGroupoid.mu_star
        pg = make_groupoid("pair-real1")
        grid = GridSpec("circle", 8)
        g, h = (GridMap(grid, pg.arrows, np.tile(amb, (grid.n, 1)))
                for amb in ([1.0, 2.0], [3.0, 5.0]))
        with pytest.raises(NotComposable):
            build_current(pg, grid).mu_star(g, h)


class TestInverseAndUnits:
    def test_rotation_action_inverse_formula(self):
        ra = make_groupoid("rot-action")
        t, th = 0.7, 0.4
        g = ra.arrows.point_from_ambient([t, math.cos(th), math.sin(th)])
        ig = at(ra.iota, g)
        assert ig.ambient[0] == pytest.approx(-t)
        assert math.atan2(ig.ambient[2], ig.ambient[1]) == pytest.approx(th + t)

    def test_pair_inverse_is_the_swap(self):
        # forced by iota(g) . g = unit at the source
        pg = make_groupoid("pair-real1")
        g = pg.arrows.point_from_ambient([1.0, 2.0])
        ig = at(pg.iota, g)
        assert np.allclose(ig.ambient, [2.0, 1.0])
        u = mu(pg, ig, g)
        assert close_to(u, at(pg.unit, at(pg.alpha, g)))

    def test_unit_groupoid_inverse_is_identity(self):
        ug = make_groupoid("unit-circle")
        x = ug.arrows.point_from_ambient(Circle().point_at_angle(-0.9).ambient)
        assert close_to(at(ug.iota, x), x)

    def test_inverse_laws_on_samples(self):
        rng = np.random.default_rng(0)
        for name in GROUPOIDS:
            gpd = make_groupoid(name)
            for amb in gpd.arrows.sample(rng, 10):
                g = gpd.arrows.point_from_ambient(amb)
                a, b = at(gpd.alpha, g), at(gpd.beta, g)
                left = mu(gpd, at(gpd.iota, g), g)
                right = mu(gpd, g, at(gpd.iota, g))
                assert close_to(left, at(gpd.unit, a))
                assert close_to(right, at(gpd.unit, b))


class TestAnchor:
    def test_rotation_action(self):
        ra = make_groupoid("rot-action")
        t, th = 0.7, 0.0
        g = ra.arrows.point_from_ambient([t, math.cos(th), math.sin(th)])
        a, b = at(ra.alpha, g), at(ra.beta, g)
        assert np.allclose(a.ambient, [1.0, 0.0])
        assert math.atan2(b.ambient[1], b.ambient[0]) == pytest.approx(t)

    def test_unit_groupoid_diagonal(self):
        ug = make_groupoid("unit-circle")
        x = ug.arrows.point_from_ambient(Circle().point_at_angle(1.1).ambient)
        a, b = at(ug.alpha, x), at(ug.beta, x)
        assert close_to(a, b) and close_to(a, x)

    def test_pair_groupoid_swaps(self):
        pg = make_groupoid("pair-real1")
        g = pg.arrows.point_from_ambient([1.0, 2.0])
        a, b = at(pg.alpha, g), at(pg.beta, g)
        assert a.ambient[0] == pytest.approx(2.0)
        assert b.ambient[0] == pytest.approx(1.0)

    def test_anchor_of_inverse_swaps_components(self):
        rng = np.random.default_rng(1)
        for name in GROUPOIDS:
            gpd = make_groupoid(name)
            for amb in gpd.arrows.sample(rng, 5):
                g = gpd.arrows.point_from_ambient(amb)
                ig = at(gpd.iota, g)
                a, b = at(gpd.alpha, g), at(gpd.beta, g)
                ai, bi = at(gpd.alpha, ig), at(gpd.beta, ig)
                assert close_to(a, bi) and close_to(b, ai)


class TestCheckAxioms:
    def test_catalog_passes(self):
        for name in GROUPOIDS:
            rep = check_axioms(make_groupoid(name), n_samples=1000, seed=42)
            assert rep.max_violation <= 1e-9, (name, rep.violations)

    def test_unit_groupoid_is_exact(self):
        rep = check_axioms(make_groupoid("unit-circle"), 500, seed=3)
        assert rep.max_violation == 0.0

    def test_corrupted_multiplication_detected(self):
        good = make_groupoid("pair-real1")

        def bad_mu(g, h):
            out = good.mu_fn(g, h)
            return [out[0], out[1] + 0.1]

        bad = LieGroupoid("corrupted-pair", good.arrows, good.base,
                          good.alpha, good.beta, bad_mu, good.iota, good.unit,
                          fiber=good.fiber)
        rep = check_axioms(bad, 200, seed=4)
        assert rep.violations["left_unit"] > 0.05 \
            or rep.violations["associativity"] > 0.05

    def test_missing_samplers(self):
        ug = unit_groupoid(Circle())
        bare = LieGroupoid("no-fiber", ug.arrows, ug.base, ug.alpha, ug.beta,
                           ug.mu_fn, ug.iota, ug.unit)
        with pytest.raises(SamplingFailure):
            check_axioms(bare, 10, 0)


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_fiber_contract(name):
    """Fiber samples lie over their targets; projection fixes arrows."""
    gpd = make_groupoid(name)
    rng = np.random.default_rng(12)
    x = gpd.base.sample(rng, 20)
    h = gpd.sample_with_beta(x, rng)
    assert np.max(gpd.base.distance(gpd.beta_batch(h), x)) <= 1e-12
    for kind in ("circle", "interval"):
        grid = GridSpec(kind, 16)
        for n in (None, 6):    # one target path, then six stacked ones
            tgt = gpd.base.sample_path(grid.params(), rng, grid.closed, n)
            path = gpd.sample_arrow_path_with_beta(tgt, grid.params(), rng,
                                                   grid.closed)
            assert path.shape == tgt.shape[:-1] + (gpd.arrows.ambient_dim,)
            assert np.max(gpd.base.distance(gpd.beta_batch(path),
                                            tgt)) <= 1e-12
    g = gpd.arrows.sample(rng, 20)
    back = gpd.project_to_beta(g, gpd.beta_batch(g))
    assert np.max(np.abs(back - g)) <= 1e-12


def same_bits(a, b):
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


def axiom_batches(gpd, rng):
    """C-order (g, h, k, xs): 40 flat triples, then 5 paths on 16 nodes."""
    grid = GridSpec("circle", 16)
    flat = sample_composable_triple(gpd, rng, 40) + (gpd.base.sample(rng, 40),)
    params, closed = grid.params(), grid.closed
    g = gpd.arrows.sample_path(params, rng, closed, 5)
    h = gpd.sample_arrow_path_with_beta(gpd.alpha_batch(g), params, rng, closed)
    k = gpd.sample_arrow_path_with_beta(gpd.alpha_batch(h), params, rng, closed)
    paths = (g, h, k, gpd.base.sample_path(params, rng, closed, 5))
    return [[np.ascontiguousarray(a) for a in b] for b in (flat, paths)]


def hexed(viol):
    return {law: float(v).hex() for law, v in viol.items()}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_structure_maps_ignore_memory_order(name):
    """C-order and component-major inputs give the same bits, both from the
    structure maps and from the law residuals of axiom_violations."""
    gpd = make_groupoid(name)
    for batch in axiom_batches(gpd, np.random.default_rng(13)):
        g, h, _, x = batch
        for fn, args in ((gpd.mu_batch, (g, h)), (gpd.alpha_batch, (g,)),
                         (gpd.beta_batch, (g,)), (gpd.iota_batch, (g,)),
                         (gpd.unit_batch, (x,))):
            want = fn(*args)
            assert same_bits(fn(*map(component_major, args)), want)
        want = hexed(axiom_violations(gpd, *batch))
        assert hexed(axiom_violations(gpd, *map(component_major, batch))) == want


LAWS = ("associativity", "left_unit", "right_unit", "left_inverse",
        "right_inverse", "alpha_of_mu", "beta_of_mu", "alpha_of_unit",
        "beta_of_unit")


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_axiom_violations_never_stack(name, monkeypatch):
    """The law checks run on component lists; none merges a batch again."""
    gpd = make_groupoid(name)
    batches = axiom_batches(gpd, np.random.default_rng(15))

    def refuse(comps):
        raise AssertionError("a law check stacked its components")

    for mod in (groupoids, manifolds):
        monkeypatch.setattr(mod, "merge_components", refuse)
    for batch in batches:
        viol = axiom_violations(gpd, *map(component_major, batch))
        assert set(viol) == set(LAWS) and max(viol.values()) <= 1e-12


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_blocked_residuals_equal_whole_array_ones(name, monkeypatch):
    """The worst residual over blocks has the bits of the worst over all
    points: blocks of LAW_BLOCK points end in a ragged block of 123, and
    blocks of 7 end in ragged blocks of 5 (40 points) and 3 (80 nodes)."""
    gpd = make_groupoid(name)
    rng = np.random.default_rng(19)
    n = groupoids.LAW_BLOCK + 123
    batches = axiom_batches(gpd, rng) + [
        sample_composable_triple(gpd, rng, n) + (gpd.base.sample(rng, n),)]
    blocked = [hexed(axiom_violations(gpd, *b)) for b in batches]
    monkeypatch.setattr(groupoids, "LAW_BLOCK", 7)
    small = [hexed(axiom_violations(gpd, *b)) for b in batches[:2]]
    monkeypatch.setattr(groupoids, "LAW_BLOCK", 10 ** 9)
    whole = [hexed(axiom_violations(gpd, *b)) for b in batches]
    assert blocked == whole and small == whole[:2]
    assert all(set(v) == set(LAWS) for v in whole)


def test_a_nan_product_makes_its_laws_nan():
    """mu writing one NaN at one node turns every law that reads it to NaN."""
    gpd = make_groupoid("pair-real1")
    mu_fn = gpd.mu_fn

    def one_nan(g, h):
        out = mu_fn(g, h)
        first = np.array(out[0], dtype=float)
        first.flat[3] = np.nan
        return [first] + out[1:]

    gpd.mu_fn = one_nan
    # mu = (target of g, source of h): its first component is beta(mu)
    nan_laws = {"associativity", "left_unit", "right_unit", "left_inverse",
                "right_inverse", "beta_of_mu"}
    reports = [check_axioms(gpd, 50, seed=1),
               build_current(gpd, GridSpec("circle", 16)).check_axioms(
                   260, seed=1)]  # two chunks, of 250 and 10
    for viol in ([axiom_violations(gpd, *b)
                  for b in axiom_batches(gpd, np.random.default_rng(16))]
                 + [rep.violations for rep in reports]):
        assert {law for law, v in viol.items() if math.isnan(v)} == nan_laws
        assert all(viol[law] == 0.0 for law in set(LAWS) - nan_laws)
        assert not all(v <= 1e-9 for v in viol.values())
    assert not any(rep.passed(1e-9) for rep in reports)
    late = AxiomReport("late", 1, 0,
                       {"associativity": 0.0, "beta_of_mu": math.nan})
    assert math.isnan(late.max_violation) and not late.passed(1e-9)


def test_a_nan_in_a_later_block_makes_exactly_its_laws_nan():
    """One NaN entry past the first block of axiom_violations: in k it
    reaches associativity alone, in xs the two unit laws alone."""
    gpd = make_groupoid("pair-real1")
    rng = np.random.default_rng(21)
    n = 2 * groupoids.LAW_BLOCK + 40
    g, h, k = sample_composable_triple(gpd, rng, n)
    xs = gpd.base.sample(rng, n)
    late = groupoids.LAW_BLOCK + 17
    for arrays, index, nan_laws in (
            ((g, h, k.copy(), xs), 2, {"associativity"}),
            ((g, h, k, xs.copy()), 3, {"alpha_of_unit", "beta_of_unit"})):
        arrays[index][late, -1] = np.nan
        viol = axiom_violations(gpd, *arrays)
        assert {law for law, v in viol.items() if math.isnan(v)} == nan_laws
        assert all(viol[law] == 0.0 for law in set(LAWS) - nan_laws)


@pytest.mark.parametrize("n", [0, -5])
def test_axiom_checks_refuse_an_empty_sample(n):
    """No samples check nothing: both axiom checks raise instead of passing."""
    gpd = make_groupoid("pair-real1")
    with pytest.raises(ValueError, match="n_samples"):
        check_axioms(gpd, n)
    with pytest.raises(ValueError, match="n_samples"):
        build_current(gpd, GridSpec("circle", 16)).check_axioms(n)


def test_flat_check_draws_law_blocks_from_one_generator(monkeypatch):
    """With LAW_BLOCK = 7, n = 20 is three draws of 7, 7 and 6 samples, in
    order from one generator, and the report keeps each law's worst; one
    draw of all 20 gives other residuals."""
    gpd = make_groupoid("so3-action")
    monkeypatch.setattr(groupoids, "LAW_BLOCK", 7)
    rng = np.random.default_rng(5)
    chunks = [axiom_violations(gpd, *sample_composable_triple(gpd, rng, m),
                               gpd.base.sample(rng, m)) for m in (7, 7, 6)]
    want = hexed({law: max(c[law] for c in chunks) for law in LAWS})
    assert hexed(check_axioms(gpd, 20, seed=5).violations) == want
    monkeypatch.setattr(groupoids, "LAW_BLOCK", 10 ** 9)
    assert hexed(check_axioms(gpd, 20, seed=5).violations) != want


def test_flat_check_memory_does_not_grow_with_the_sample_count():
    """The traced peak of the flat check at 4 LAW_BLOCKs stays within 1 MiB
    of its peak at one: each block is drawn, checked and dropped."""
    gpd = make_groupoid("so3-action")
    check_axioms(gpd, 10)  # builds whatever the structure maps cache
    peaks = []
    for n in (groupoids.LAW_BLOCK, 4 * groupoids.LAW_BLOCK):
        tracemalloc.start()
        try:
            check_axioms(gpd, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 ** 20, peaks


# float.hex of every residual of the seeded axiom checks in
# test_axiom_residuals_are_pinned; a law left out of an entry is exactly 0.
# A change of memory order or of summation order that moves one bit of a
# residual fails here.
PINNED_RESIDUALS = {
    "circle/circle-bundle": {"associativity": "0x1.4000000000000p-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "circle/pair-real1": {},
    "circle/pair-real2": {},
    "circle/rot-action": {"associativity": "0x1.0000000000000p-49",
        "beta_of_mu": "0x1.4000000000000p-51"},
    "circle/so3-action": {"associativity": "0x1.f627c54f1e0abp-52",
        "beta_of_mu": "0x1.3498c97b10540p-48",
        "left_inverse": "0x1.ff27d25cbd171p-50",
        "right_inverse": "0x1.fee7b346048acp-50"},
    "circle/so3-group": {"associativity": "0x1.11e039f40ee66p-51",
        "left_inverse": "0x1.ff27d25cbd171p-50",
        "right_inverse": "0x1.fee7b346048acp-50"},
    "circle/unit-circle": {},
    "circle/z2-line": {},
    "circle/z4-plane": {"beta_of_mu": "0x1.6a09e667f3bcdp-51"},
    "flat/circle-bundle": {"associativity": "0x1.6a09e667f3bcdp-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "flat/pair-real1": {},
    "flat/pair-real2": {},
    "flat/rot-action": {"associativity": "0x1.0000000000000p-50",
        "beta_of_mu": "0x1.2706821902e9ap-51"},
    "flat/so3-action": {"associativity": "0x1.3000000000000p-51",
        "beta_of_mu": "0x1.f4904d7b11f1dp-49",
        "left_inverse": "0x1.535c1579caa21p-49",
        "right_inverse": "0x1.467cc4009a71ap-49"},
    "flat/so3-group": {"associativity": "0x1.0a7b13a596cbap-51",
        "left_inverse": "0x1.535c1579caa21p-49",
        "right_inverse": "0x1.467cc4009a71ap-49"},
    "flat/unit-circle": {},
    "flat/z2-line": {},
    "flat/z4-plane": {"beta_of_mu": "0x1.94c583ada5b53p-51"},
    "interval/circle-bundle": {"associativity": "0x1.4000000000000p-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "interval/pair-real1": {},
    "interval/pair-real2": {},
    "interval/rot-action": {"associativity": "0x1.0000000000000p-50",
        "beta_of_mu": "0x1.65c55827df1d2p-51"},
    "interval/so3-action": {"associativity": "0x1.20e33499a21a9p-51",
        "beta_of_mu": "0x1.2ae79842f2858p-48",
        "left_inverse": "0x1.de76d6730a41ep-50",
        "right_inverse": "0x1.007fe00ff6070p-49"},
    "interval/so3-group": {"associativity": "0x1.1a9dc8f6df104p-51",
        "left_inverse": "0x1.de76d6730a41ep-50",
        "right_inverse": "0x1.007fe00ff6070p-49"},
    "interval/unit-circle": {},
    "interval/z2-line": {},
    "interval/z4-plane": {"beta_of_mu": "0x1.6a09e667f3bcdp-51"},
}


# The same for flat checks of 1000 triples, and lifted checks of 300
# samples (draw chunks of 250 and 50) at n=64.
PINNED_TWO_CHUNK_RESIDUALS = {
    "circle/circle-bundle": {"associativity": "0x1.94c583ada5b53p-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "circle/pair-real1": {},
    "circle/pair-real2": {},
    "circle/rot-action": {"associativity": "0x1.0000000000000p-49",
        "beta_of_mu": "0x1.8154be2773526p-51"},
    "circle/so3-action": {"associativity": "0x1.2f9422c23c47ep-51",
        "beta_of_mu": "0x1.6b733bfd8c648p-48",
        "left_inverse": "0x1.7cdd63e3295ebp-49",
        "right_inverse": "0x1.816465476320fp-49"},
    "circle/so3-group": {"associativity": "0x1.3a73affce845fp-51",
        "left_inverse": "0x1.7cdd63e3295ebp-49",
        "right_inverse": "0x1.816465476320fp-49"},
    "circle/unit-circle": {},
    "circle/z2-line": {},
    "circle/z4-plane": {"beta_of_mu": "0x1.6a09e667f3bcdp-50"},
    "flat/circle-bundle": {"associativity": "0x1.94c583ada5b53p-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "flat/pair-real1": {},
    "flat/pair-real2": {},
    "flat/rot-action": {"associativity": "0x1.0000000000000p-50",
        "beta_of_mu": "0x1.94c583ada5b53p-51"},
    "flat/so3-action": {"associativity": "0x1.1c6c16b2db870p-51",
        "beta_of_mu": "0x1.292fd2c6a6262p-48",
        "left_inverse": "0x1.535c1579caa21p-49",
        "right_inverse": "0x1.467cc4009a71ap-49"},
    "flat/so3-group": {"associativity": "0x1.0783c3bce15a9p-51",
        "left_inverse": "0x1.535c1579caa21p-49",
        "right_inverse": "0x1.467cc4009a71ap-49"},
    "flat/unit-circle": {},
    "flat/z2-line": {},
    "flat/z4-plane": {"beta_of_mu": "0x1.0f876ccdf6cd9p-50"},
    "interval/circle-bundle": {"associativity": "0x1.94c583ada5b53p-52",
        "left_inverse": "0x1.0000000000000p-52",
        "right_inverse": "0x1.0000000000000p-52"},
    "interval/pair-real1": {},
    "interval/pair-real2": {},
    "interval/rot-action": {"associativity": "0x1.0000000000000p-49",
        "beta_of_mu": "0x1.94c583ada5b53p-51"},
    "interval/so3-action": {"associativity": "0x1.384ebafd57667p-51",
        "beta_of_mu": "0x1.72c5acc093bb4p-48",
        "left_inverse": "0x1.6ccea718d83edp-49",
        "right_inverse": "0x1.6f50b4dbe3adap-49"},
    "interval/so3-group": {"associativity": "0x1.4eb01b2757013p-51",
        "left_inverse": "0x1.6ccea718d83edp-49",
        "right_inverse": "0x1.6f50b4dbe3adap-49"},
    "interval/unit-circle": {},
    "interval/z2-line": {},
    "interval/z4-plane": {"beta_of_mu": "0x1.6a09e667f3bcdp-50"},
}


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_axiom_residuals_are_pinned(name):
    gpd = make_groupoid(name)
    for table, flat, n, samples in ((PINNED_RESIDUALS, 500, 16, 30),
                                    (PINNED_TWO_CHUNK_RESIDUALS, 1000, 64,
                                     300)):
        reports = {"flat": check_axioms(gpd, flat, seed=0)}
        for kind in ("circle", "interval"):
            reports[kind] = build_current(gpd, GridSpec(kind, n)).check_axioms(
                samples, seed=0)
        for where, rep in reports.items():
            pinned = table[f"{where}/{name}"]
            got = {law: float(v).hex() for law, v in rep.violations.items()}
            assert got == {law: pinned.get(law, float(0).hex())
                           for law in LAWS}


class TestClassifiers:
    def test_etale_ground_truth(self):
        assert classify_etale(make_groupoid("z4-plane"), 50, 0).verdict
        assert classify_etale(make_groupoid("z2-line"), 50, 0).verdict
        assert classify_etale(make_groupoid("unit-circle"), 50, 0).verdict
        assert not classify_etale(make_groupoid("pair-real1"), 50, 0).verdict

    def test_etale_dimension_shortcut(self):
        rep = classify_etale(make_groupoid("pair-real2"), 5, 0)
        assert not rep.verdict and "dim" in rep.note

    def test_locally_transitive_ground_truth(self):
        # pair: anchor is the swap; unit: diagonal; bundle: totally intransitive
        assert classify_locally_transitive(make_groupoid("pair-real2"), 50, 0).verdict
        assert classify_locally_transitive(make_groupoid("rot-action"), 50, 0).verdict
        assert not classify_locally_transitive(
            make_groupoid("unit-circle"), 50, 0).verdict
        assert not classify_locally_transitive(
            make_groupoid("circle-bundle"), 50, 0).verdict

    def test_witness_returned_on_failure(self):
        rep = classify_locally_transitive(make_groupoid("circle-bundle"), 20, 0)
        assert rep.witness is not None


class TestIsotropy:
    def test_z4_at_origin(self):
        z4 = make_groupoid("z4-plane")
        iso = isotropy_group(z4, z4.base.point_from_ambient([0.0, 0.0]))
        assert len(iso) == 4
        # closed table: it is the cyclic group
        assert sorted(set(iso.table.reshape(-1))) == [0, 1, 2, 3]

    def test_z4_at_generic_point(self):
        z4 = make_groupoid("z4-plane")
        iso = isotropy_group(z4, z4.base.point_from_ambient([1.0, 0.0]))
        assert len(iso) == 1

    def test_z2_reflection_at_zero(self):
        z2 = make_groupoid("z2-line")
        iso = isotropy_group(z2, z2.base.point_from_ambient([0.0]))
        assert len(iso) == 2

    def test_unsupported_for_smooth_groupoids(self):
        pg = make_groupoid("pair-real1")
        with pytest.raises(Unsupported):
            isotropy_group(pg, pg.base.point_from_ambient([0.0]))


class TestFiniteGroups:
    def test_cyclic_group_table(self):
        grp = cyclic_rotation_group(4)
        assert len(grp) == 4
        assert grp.table[1, 1] == 2 and grp.table[1, 3] == 0
        assert list(grp.inverse) == [0, 3, 2, 1]

    def test_reflection_group(self):
        grp = reflection_group_1d()
        assert grp.table[1, 1] == 0

    def test_unclosed_set_rejected(self):
        from currentgpd.groupoids import FiniteGroup
        rot = cyclic_rotation_group(4).elements[1]
        with pytest.raises(Unsupported):
            FiniteGroup([cyclic_rotation_group(4).elements[0], rot])


# (group, largest law residual): the finite groups look indices up in a
# table and the translation groups add dyadic points exactly
GROUP_LAWS = {"real1": (lambda: Euclidean(1), 0.0),
              "real3": (lambda: Euclidean(3), 0.0),
              "circle": (Circle, 1e-12),
              "so3": (RotationGroup, 1e-12),
              "z4": (lambda: cyclic_rotation_group(4), 0.0),
              "z2": (reflection_group_1d, 0.0)}


@pytest.mark.parametrize("name", sorted(GROUP_LAWS))
def test_group_laws(name):
    """The identity is a unit, invert gives inverses, mul is associative."""
    make, tol = GROUP_LAWS[name]
    grp = make()
    rng = np.random.default_rng(31)
    draws = [grp.sample(rng, 200) for _ in range(3)]
    if isinstance(grp, Euclidean):
        # float sums are associative only when exact: points k / 64
        draws = [np.round(d * 64.0) / 64.0 for d in draws]
    a, b, c = (split_components(d) for d in draws)
    e = [np.full(200, x) for x in grp.identity]
    mul, inv = grp.mul, grp.invert

    def gap(x, y):
        return max(float(np.max(np.abs(np.asarray(u) - np.asarray(v))))
                   for u, v in zip(x, y))

    assert gap(mul(e, a), a) <= tol and gap(mul(a, e), a) <= tol
    assert gap(mul(a, inv(a)), e) <= tol and gap(mul(inv(a), a), e) <= tol
    assert gap(mul(mul(a, b), c), mul(a, mul(b, c))) <= tol


def affine_oracle_build(grp, x, idx):
    """The arrows with targets x and element indices idx, each target moved
    by its inverse element through AffineElement.act (a matmul)."""
    flat = x.reshape(-1, x.shape[-1])
    inv = grp.inverse[np.rint(idx.reshape(-1)).astype(int)]
    out = np.zeros_like(flat)
    for k, el in enumerate(grp.elements):
        out[inv == k] = el.act(flat[inv == k])
    return np.concatenate([idx, out.reshape(x.shape)], axis=-1)


@pytest.mark.parametrize("name", ["z4-plane", "z2-line"])
def test_finite_fiber_build_rounds_as_the_affine_matmul(name):
    """The fiber build moves targets by weighted sums of act_comps.  The
    residual pins of the finite groupoids rely on these rounding as act's
    matmul does, bit for bit; where the two part, this test names it."""
    gpd = make_groupoid(name)
    grp = gpd.finite_group
    rng = np.random.default_rng(32)
    x = gpd.base.sample(rng, 100000)
    idx = grp.sample(rng, 100000)
    assert same_bits(gpd.fiber.build(x, idx), affine_oracle_build(grp, x, idx))
    grid = GridSpec("circle", 64)
    x = np.ascontiguousarray(
        gpd.base.sample_path(grid.params(), rng, grid.closed, 7))
    idx = np.ascontiguousarray(
        grp.sample_path(grid.params(), rng, grid.closed, 7))
    got = np.ascontiguousarray(gpd.fiber.build(x, idx))
    assert same_bits(got, affine_oracle_build(grp, x, idx))
