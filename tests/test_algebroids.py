import hashlib
import math

import numpy as np
import pytest

from currentgpd import ad
from currentgpd.algebroids import (AlgebroidSection, LieAlgebroid,
                                   algebroid_of_groupoid,
                                   current_bracket_two_ways,
                                   current_bracket_values, groupoid_power,
                                   law_residuals, lift_section,
                                   per_node_coeffs, sign_convention_check,
                                   vector_field_bracket)
from currentgpd.catalog import Circle, RotationGroup
from currentgpd.errors import FrameProjectionError
from currentgpd.gridmaps import GridMap, GridSpec, random_grid_map
from currentgpd.groupoids import GROUPOIDS, make_groupoid
from currentgpd.manifolds import (Tangent, chart_count, merge_components,
                                  tangent_map)
from currentgpd.report import worst_residual


def field_section(alg, V):
    """Section of the pair-groupoid algebroid from a vector field on the base."""
    def vector_fn(xc):
        v = V(xc)
        return list(v) + [0.0 * c for c in v]

    return AlgebroidSection(alg, vector_fn)


class TestAlgebroidOfGroupoid:
    def test_unit_groupoid_has_rank_zero(self):
        alg = algebroid_of_groupoid(make_groupoid("unit-circle"))
        assert alg.rank == 0
        x = alg.base.point_from_ambient(alg.base.sample(np.random.default_rng(0)))
        coeffs = alg.coefficients_in_frame(alg.constant_section([]), x)
        assert coeffs.shape == (0,)

    def test_pair_groupoid_is_the_tangent_bundle(self):
        pg = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(pg)
        assert alg.rank == pg.base.dim
        # anchor is bijective: two independent sections stay independent
        rng = np.random.default_rng(0)
        x = pg.base.point_from_ambient(pg.base.sample(rng))
        e1 = field_section(alg, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0]])
        e2 = field_section(alg, lambda c: [0.0 * c[0], 1.0 + 0.0 * c[0]])
        a1 = merge_components(alg.anchor_vector(e1, list(x.ambient)))
        a2 = merge_components(alg.anchor_vector(e2, list(x.ambient)))
        assert abs(np.linalg.det(np.stack([a1, a2]))) > 0.5

    def test_kernel_frames_kill_the_source(self):
        for name in ("pair-real2", "rot-action", "z4-plane", "so3-action"):
            gpd = make_groupoid(name)
            alg = algebroid_of_groupoid(gpd)
            rng = np.random.default_rng(1)
            for _ in range(5):
                x = gpd.base.sample(rng)
                frame, cg, u = alg.frame_fields(list(x))
                unit = gpd.arrows.point_from_coords(
                    cg, [ad.value(c) for c in u])
                for f in frame:
                    t = Tangent(unit, np.array([ad.value(c) for c in f]))
                    out = tangent_map(gpd.alpha, t)
                    assert float(np.max(np.abs(out.vel))) < 1e-9

    def test_action_groupoid_anchor_is_fundamental_field(self):
        # oracle: finite differences of the flow t -> exp(t xi).m
        ra = make_groupoid("rot-action")
        alg = algebroid_of_groupoid(ra)
        assert alg.rank == 1
        X = alg.constant_section([1.0])
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            z = ra.base.point_from_ambient(ra.base.sample(rng))
            got = merge_components(alg.anchor_vector(X, list(z.ambient)))
            coeff = alg.coefficients_in_frame(X, z)
            th = math.atan2(z.ambient[1], z.ambient[0])
            fd = (np.array([math.cos(th + h * coeff[0]),
                            math.sin(th + h * coeff[0])])
                  - np.array([math.cos(th - h * coeff[0]),
                              math.sin(th - h * coeff[0])])) / (2 * h)
            assert float(np.max(np.abs(got - fd))) < 1e-6


class TestRightInvariantExtension:
    def test_zero_section_extends_to_zero(self):
        pg = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(pg)
        Z = AlgebroidSection(alg, lambda xc: [0.0 * c for c in xc] * 2)
        rng = np.random.default_rng(3)
        g = pg.arrows.sample(rng, 1)[0]
        assert float(np.max(np.abs(merge_components(
            alg.right_invariant_extension(Z)(list(g)))))) < 1e-12

    def test_value_at_units_is_the_section(self):
        for name in ("pair-real2", "rot-action"):
            gpd = make_groupoid(name)
            alg = algebroid_of_groupoid(gpd)
            rng = np.random.default_rng(4)
            X = alg.random_polynomial_section(rng)
            field = alg.right_invariant_extension(X)
            for _ in range(10):
                x = gpd.base.point_from_ambient(gpd.base.sample(rng))
                u = gpd.unit.apply_batch(x.ambient)
                ext = merge_components(field(list(u)))
                val = merge_components(X.vector_fn(list(x.ambient)))
                assert float(np.max(np.abs(ext - val))) < 1e-9

    def test_pair_groupoid_extension_formula(self):
        # the extension of a field V places (V(a), 0) at the arrow (a, b)
        pg = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(pg)
        V = lambda c: [ad.sin(c[0]), c[1] * c[0]]
        X = field_section(alg, V)
        rng = np.random.default_rng(5)
        for _ in range(10):
            amb = pg.arrows.sample(rng, 1)[0]
            got = merge_components(alg.right_invariant_extension(X)(list(amb)))
            a = amb[:2]
            expected = np.array([math.sin(a[0]), a[1] * a[0], 0.0, 0.0])
            assert float(np.max(np.abs(got - expected))) < 1e-10

    def test_right_invariance(self):
        # the field commutes with right translation on composable samples
        gpd = make_groupoid("rot-action")
        alg = algebroid_of_groupoid(gpd)
        rng = np.random.default_rng(6)
        X = alg.random_polynomial_section(rng)
        field = alg.right_invariant_extension(X)
        for _ in range(10):
            h_amb = gpd.arrows.sample(rng, 1)[0]
            g_amb = gpd.sample_with_beta(gpd.alpha_batch(h_amb[None]), rng)[0]
            hg = gpd.mu_batch(h_amb[None], g_amb[None])[0]
            lhs = merge_components(field(list(hg)))
            # T(R_g) applied to the field at h
            vh = merge_components(field(list(h_amb)))
            seeded = [ad.Dual(a, b) for a, b in zip(h_amb, vh)]
            frozen = [ad.Dual(c, 0.0) for c in g_amb]
            out = gpd.mu_fn(seeded, frozen)
            rhs = merge_components([o.ep for o in out])
            assert float(np.max(np.abs(lhs - rhs))) < 1e-5


class TestBracket:
    def test_pair_groupoid_bracket_is_field_bracket(self):
        # symbolic oracle: [d/dx, x d/dy] = d/dy
        pg = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(pg)
        X = field_section(alg, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0]])
        Y = field_section(alg, lambda c: [0.0 * c[0], c[0]])
        rng = np.random.default_rng(7)
        br = alg.bracket(X, Y)
        for _ in range(10):
            x = pg.base.sample(rng)
            got = merge_components(br.vector_fn(list(x)))
            assert np.allclose(got, [0.0, 1.0, 0.0, 0.0], atol=1e-10)

    def test_abelian_bundle_brackets_vanish(self):
        gb = make_groupoid("circle-bundle")
        alg = algebroid_of_groupoid(gb)
        assert alg.rank == 1
        X = alg.constant_section([1.0])
        Y = alg.constant_section([-0.7])
        rng = np.random.default_rng(8)
        br = alg.bracket(X, Y)
        for _ in range(5):
            x = gb.base.sample(rng)
            got = merge_components(br.vector_fn(list(x)))
            assert float(np.max(np.abs(got))) < 1e-9
        # and the anchor of a vertical bundle is zero
        z = gb.base.point_from_ambient(gb.base.sample(rng))
        assert float(np.max(np.abs(merge_components(
            alg.anchor_vector(X, list(z.ambient)))))) < 1e-9

    def test_so3_action_constant_sections_give_commutator(self):
        # oracle: the flow commutator of the fundamental fields
        gpd = make_groupoid("so3-action")
        alg = algebroid_of_groupoid(gpd)
        assert alg.rank == 3
        rng = np.random.default_rng(9)
        signs = []
        for _ in range(4):
            xi = rng.normal(size=3)
            eta = rng.normal(size=3)
            X = alg.constant_section(xi)
            Y = alg.constant_section(eta)
            x = gpd.base.point_from_ambient(gpd.base.sample(rng))
            got = alg.coefficients_in_frame(alg.bracket(X, Y), x)
            com = np.cross(alg.coefficients_in_frame(X, x),
                           alg.coefficients_in_frame(Y, x))
            ratio = float(np.dot(got, com) / np.dot(com, com))
            assert abs(abs(ratio) - 1.0) < 1e-6
            assert float(np.max(np.abs(got - ratio * com))) < 1e-6
            signs.append(np.sign(ratio))
        assert len(set(signs)) == 1     # one global convention

    def test_bilinearity(self):
        gpd = make_groupoid("so3-action")
        alg = algebroid_of_groupoid(gpd)
        e1 = alg.constant_section([1.0, 0.0, 0.0])
        e2 = alg.constant_section([0.0, 1.0, 0.0])
        two_e1 = alg.constant_section([2.0, 0.0, 0.0])
        rng = np.random.default_rng(10)
        x = gpd.base.sample(rng)
        a = merge_components(alg.bracket(two_e1, e2).vector_fn(list(x)))
        b = merge_components(alg.bracket(e1, e2).vector_fn(list(x)))
        assert float(np.max(np.abs(a - 2.0 * b))) < 1e-9

    def test_antisymmetry_and_jacobi(self):
        for name in ("pair-real2", "rot-action"):
            gpd = make_groupoid(name)
            alg = algebroid_of_groupoid(gpd)
            rng = np.random.default_rng(11)
            X = alg.random_polynomial_section(rng, "X")
            Y = alg.random_polynomial_section(rng, "Y")
            Z = alg.random_polynomial_section(rng, "Z")
            for _ in range(3):
                x = list(gpd.base.sample(rng))
                a = merge_components(alg.bracket(X, Y).vector_fn(x))
                b = merge_components(alg.bracket(Y, X).vector_fn(x))
                assert float(np.max(np.abs(a + b))) < 1e-5
                s = (merge_components(
                        alg.bracket(X, alg.bracket(Y, Z)).vector_fn(x))
                     + merge_components(
                        alg.bracket(Z, alg.bracket(X, Y)).vector_fn(x))
                     + merge_components(
                        alg.bracket(Y, alg.bracket(Z, X)).vector_fn(x)))
                assert float(np.max(np.abs(s))) < 1e-5

    def test_leibniz_rule(self):
        gpd = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(gpd)
        rng = np.random.default_rng(12)
        X = alg.random_polynomial_section(rng, "X")
        Y = alg.random_polynomial_section(rng, "Y")
        f = lambda c: 1.0 + 0.5 * c[0] * c[1] - 0.2 * c[0]
        fY = Y.times_function(f)
        for _ in range(5):
            x = list(gpd.base.sample(rng))
            lhs = merge_components(alg.bracket(X, fY).vector_fn(x))
            aX = merge_components(alg.anchor_vector(X, x))
            aXf = ad.jvp(lambda c: [f(c)], x, list(aX))[1][0]
            rhs = (f(x) * merge_components(alg.bracket(X, Y).vector_fn(x))
                   + aXf * merge_components(Y.vector_fn(x)))
            assert float(np.max(np.abs(lhs - rhs))) < 1e-5

    def test_nan_out_of_kernel_residual_raises(self):
        # a NaN in the group part of a section value makes the commutator
        # leave the kernel by NaN; the bracket must refuse it as it refuses
        # a large residual
        gpd = make_groupoid("rot-action")
        alg = algebroid_of_groupoid(gpd)
        rng = np.random.default_rng(14)
        X = alg.random_polynomial_section(rng, "X")
        Y = alg.random_polynomial_section(rng, "Y")
        nan_y = AlgebroidSection(alg, lambda c: [Y.vector_fn(c)[0] + math.nan]
                                 + list(Y.vector_fn(c)[1:]))
        x = list(gpd.base.sample(rng))
        merge_components(alg.bracket(X, Y).vector_fn(x))
        with pytest.raises(FrameProjectionError, match="by nan"):
            alg.bracket(X, nan_y).vector_fn(x)

    def test_anchor_is_a_morphism(self):
        gpd = make_groupoid("rot-action")
        alg = algebroid_of_groupoid(gpd)
        rng = np.random.default_rng(13)
        X = alg.random_polynomial_section(rng, "X")
        Y = alg.random_polynomial_section(rng, "Y")
        vf = vector_field_bracket(gpd.base,
                                  lambda c: alg.anchor_vector(X, list(c)),
                                  lambda c: alg.anchor_vector(Y, list(c)))
        for _ in range(5):
            x = list(gpd.base.sample(rng))
            lhs = merge_components(alg.anchor_vector(alg.bracket(X, Y), x))
            rhs = merge_components(vf(x))
            assert float(np.max(np.abs(lhs - rhs))) < 1e-5


class TestCurrentAlgebroid:
    def test_constant_sections_bracket_constantly(self):
        gpd = make_groupoid("so3-action")
        alg = algebroid_of_groupoid(gpd)
        grid = GridSpec("circle", 8)
        rng = np.random.default_rng(14)
        X = alg.constant_section([1.0, 0.0, 0.0])
        Y = alg.constant_section([0.0, 1.0, 0.0])
        gm = random_grid_map(grid, gpd.base, rng)
        const_gm = GridMap(grid, gpd.base, np.tile(gm.ambient[:1], (grid.n, 1)))
        vals = current_bracket_values(alg, X, Y, const_gm)
        assert float(np.max(np.abs(vals - vals[0]))) < 1e-9

    def test_theorem_d_pair_groupoid(self):
        gpd = make_groupoid("pair-real2")
        alg = algebroid_of_groupoid(gpd)
        grid = GridSpec("circle", 8)
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(10):
            base = random_grid_map(grid, gpd.base, rng)
            X = alg.random_polynomial_section(rng, "X")
            Y = alg.random_polynomial_section(rng, "Y")
            worst = max(worst, current_bracket_two_ways(gpd, grid, X, Y, base))
        assert worst <= 1e-5

    def test_theorem_d_rotation_action(self):
        gpd = make_groupoid("rot-action")
        alg = algebroid_of_groupoid(gpd)
        grid = GridSpec("circle", 8)
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(10):
            base = random_grid_map(grid, gpd.base, rng)
            X = alg.random_polynomial_section(rng, "X")
            Y = alg.random_polynomial_section(rng, "Y")
            worst = max(worst, current_bracket_two_ways(gpd, grid, X, Y, base))
        assert worst <= 1e-5

    # circle-bundle's bracket vanishes, so it checks reach only
    @pytest.mark.parametrize("name,n", [("so3-action", 8), ("circle-bundle", 8),
                                        ("rot-action", 64),
                                        ("circle-bundle", 64),
                                        ("so3-action", 64),
                                        ("pair-real2", 64)])
    def test_theorem_d_on_large_powers(self, name, n):
        gpd = make_groupoid(name)
        alg = algebroid_of_groupoid(gpd)
        grid = GridSpec("circle", n)
        rng = np.random.default_rng(18)
        base = random_grid_map(grid, gpd.base, rng)
        X = alg.random_polynomial_section(rng, "X")
        Y = alg.random_polynomial_section(rng, "Y")
        power = groupoid_power(gpd, n)
        assert chart_count(power.arrows) == chart_count(gpd.arrows) ** n
        assert current_bracket_two_ways(gpd, grid, X, Y, base) <= alg.tol_bracket
        vals = current_bracket_values(alg, X, Y, base)
        assert (float(np.max(np.abs(vals))) > 1e-3) == (name != "circle-bundle")

    def test_power_groupoid_passes_axioms(self):
        from currentgpd.groupoids import axiom_violations
        gpd = make_groupoid("pair-real1")
        power = groupoid_power(gpd, 4)
        rng = np.random.default_rng(17)
        g = np.concatenate([gpd.arrows.sample(rng, 4).reshape(-1)])[None]
        h = np.concatenate(
            [gpd.sample_with_beta(gpd.alpha_batch(g.reshape(4, 2)), rng)
             .reshape(-1)])[None]
        k = np.concatenate(
            [gpd.sample_with_beta(gpd.alpha_batch(h.reshape(4, 2)), rng)
             .reshape(-1)])[None]
        xs = np.concatenate([gpd.base.sample(rng, 4).reshape(-1)])[None]
        viol = axiom_violations(power, g, h, k, xs)
        assert max(viol.values()) <= 1e-12


# name -> (digest of route one's power bracket, digest of route two's
# current_bracket_values, float.hex of coefficients_in_frame at node 0) for
# test_bracket_values_are_pinned.  A digest is the first 16 hex digits of the
# sha256 of the values' float.hex strings joined by spaces.  A change of
# summation order or of operand order that moves one bit of a bracket fails
# here.
PINNED_BRACKETS = {
    "circle-bundle": ("ee02eb3d1a04faaa", "ee02eb3d1a04faaa", ["0x0.0p+0"]),
    "pair-real1": ("f5ca198e3c0690e4", "f5ca198e3c0690e4",
                   ["-0x1.eec0b0120be6cp+0"]),
    "pair-real2": ("2d2905c77b1fab40", "2d2905c77b1fab40",
                   ["0x1.14938914201cfp+2", "-0x1.1fdcfef1c2a75p+3"]),
    "rot-action": ("59403c1912f4fcc4", "59403c1912f4fcc4",
                   ["-0x1.862fcc8bb442cp-3"]),
    "so3-action": ("2c5b549e9a80f457", "2c5b549e9a80f457",
                   ["-0x1.492e6a15ca6bcp+3", "0x1.fc715de1a4698p+5",
                    "0x1.f225f4dc7cd58p+3"]),
    "so3-group": ("f03607827c2ecf2c", "f03607827c2ecf2c",
                  ["0x1.c21d0a0082232p-4", "-0x1.03296eee0311bp-1",
                   "-0x1.85dd936168f16p-1"]),
    "unit-circle": ("fec919ef1e9765d3", "fec919ef1e9765d3", []),
    "z2-line": ("eedd089961c37072", "eedd089961c37072", []),
    "z4-plane": ("5e7b18ee6294efe0", "5e7b18ee6294efe0", []),
}


def _digest(values):
    text = " ".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_bracket_values_are_pinned(name):
    n = 8
    gpd = make_groupoid(name)
    alg = algebroid_of_groupoid(gpd)
    grid = GridSpec("circle", n)
    rng = np.random.default_rng(19)
    base = random_grid_map(grid, gpd.base, rng)
    X = alg.random_polynomial_section(rng, "X")
    Y = alg.random_polynomial_section(rng, "Y")
    am = gpd.base.ambient_dim
    big = LieAlgebroid(groupoid_power(gpd, n), alg.rank * n)
    one = big.bracket(lift_section(big, X, n, am),
                      lift_section(big, Y, n, am)).vector_fn(
        list(np.concatenate(list(base.ambient))))
    two = current_bracket_values(alg, X, Y, base).ravel()
    node0 = base.target.point_from_ambient(base.ambient[0])
    coeffs = alg.coefficients_in_frame(alg.bracket(X, Y), node0)
    assert (_digest(one), _digest(two),
            [float(c).hex() for c in coeffs]) == PINNED_BRACKETS[name]


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_bracket_values_on_all_nodes_equal_the_nodewise_ones(name):
    # route two evaluates the bracket on all 16 nodes at once; each node
    # must get the bits of the bracket evaluated there alone.  rot-action's
    # grid map spans both charts of the circle, so nodes are gathered by
    # chart and scattered back.
    n = 16
    gpd = make_groupoid(name)
    alg = algebroid_of_groupoid(gpd)
    rng = np.random.default_rng(20)
    base = random_grid_map(GridSpec("circle", n), gpd.base, rng)
    X = alg.random_polynomial_section(rng, "X")
    Y = alg.random_polynomial_section(rng, "Y")
    got = current_bracket_values(alg, X, Y, base)
    br = alg.bracket(X, Y)
    want = np.stack([merge_components(br.vector_fn(list(base.ambient[i])))
                     for i in range(n)])
    assert [v.hex() for v in got.ravel()] == [v.hex() for v in want.ravel()]
    if name == "rot-action":
        units = gpd.unit.apply_batch(base.ambient)
        assert len(set(gpd.arrows.best_chart(units).tolist())) >= 2


def _hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("name", sorted(GROUPOIDS))
def test_sample_batched_brackets_and_laws_equal_the_per_sample_ones(name):
    # S grid maps on one axis: S n nodes for route two and the laws, a
    # trailing sample axis for route one.  Each sample must get the bits it
    # gets alone, with its own coefficients.
    n, S = 8, 3
    gpd = make_groupoid(name)
    alg = algebroid_of_groupoid(gpd)
    grid = GridSpec("circle", n)
    rng = np.random.default_rng(22)
    bases, draws = [], []
    for _ in range(S):
        bases.append(random_grid_map(grid, gpd.base, rng))
        draws.append([alg.random_polynomial_coeffs(rng) for _ in "XYZ"])
    X, Y, Z = (alg.polynomial_section(per_node_coeffs(d, n))
               for d in zip(*draws))
    alone = [[alg.polynomial_section(c) for c in d] for d in draws]
    am = gpd.base.ambient_dim
    power = groupoid_power(gpd, n)
    big = LieAlgebroid(power, alg.rank * n)

    def route_one(X, Y, stacked):
        return merge_components(big.bracket(
            lift_section(big, X, n, am),
            lift_section(big, Y, n, am)).vector_fn(list(stacked)))

    stacked = np.stack([b.ambient.ravel() for b in bases], axis=-1)
    assert _hexes(route_one(X, Y, stacked)) == _hexes(
        [route_one(Xs, Ys, b.ambient.ravel())
         for b, (Xs, Ys, _) in zip(bases, alone)])
    assert _hexes(current_bracket_values(alg, X, Y, bases)) == _hexes(
        [current_bracket_values(alg, Xs, Ys, b)
         for b, (Xs, Ys, _) in zip(bases, alone)])
    assert current_bracket_two_ways(gpd, grid, X, Y, bases).hex() == \
        worst_residual(*[current_bracket_two_ways(gpd, grid, Xs, Ys, b)
                         for b, (Xs, Ys, _) in zip(bases, alone)]).hex()
    # the laws on all S n nodes; every third node, in every sample, alone
    nodes = np.concatenate([b.ambient for b in bases])
    batched = law_residuals(alg, X, Y, Z, list(nodes.T))
    each = [law_residuals(alg, *alone[k // n], list(nodes[k]))
            for k in range(0, S * n, 3)]
    for law, res in enumerate(batched):
        assert _hexes(res[::3]) == _hexes([e[law] for e in each])
    if name == "rot-action":
        units = power.unit.apply_batch(stacked.T)
        assert len(set(power.arrows.best_chart(units).tolist())) >= 2
        assert len(set(gpd.base.best_chart(nodes[::3]).tolist())) >= 2


def test_unit_chart_ids_are_memoised_per_distinct_batch(monkeypatch):
    gpd = make_groupoid("rot-action")
    alg = algebroid_of_groupoid(gpd)
    rng = np.random.default_rng(23)
    amb = random_grid_map(GridSpec("circle", 16), gpd.base, rng).ambient
    inputs = [amb[0], amb[1], amb.T, amb[:8].T]
    want = [(gpd.arrows.best_chart(gpd.unit.apply_batch(a.T)),
             gpd.base.best_chart(a.T)) for a in inputs]
    calls = []
    for m in (gpd.arrows, gpd.base):
        monkeypatch.setattr(m, "best_chart", lambda a, m=m, f=m.best_chart:
                            calls.append(m) or f(a))
    for _ in range(2):
        for a, (cg, cm) in zip(inputs, want):
            got = alg._unit_chart_context(list(a))
            assert np.array_equal(got[0], cg) and np.array_equal(got[1], cm)
    assert len(calls) == 2 * len(inputs)


class TestSignConvention:
    def test_circle_group_is_vacuous(self):
        rep = sign_convention_check(Circle())
        assert rep.sign is None and rep.consistent
        assert rep.note.startswith("abelian")

    def test_so3_sign_is_minus_one(self):
        # the groupoid bracket is anti-isomorphic to the matrix convention
        rep = sign_convention_check(RotationGroup(), seed=18)
        assert rep.consistent
        assert rep.sign == -1.0
