import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from currentgpd import ad
from currentgpd.ad import Dual
from currentgpd.catalog import catalog_maps
from currentgpd.errors import SingularNormalization
from currentgpd.groupoids import GROUPOIDS
from currentgpd.linalg import linsolve, newton


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(finite, finite, finite, finite)
def test_product_rule(a, da, b, db):
    x = Dual(a, da)
    y = Dual(b, db)
    z = x * y
    assert z.re == pytest.approx(a * b)
    assert z.ep == pytest.approx(a * db + b * da)


@given(finite, finite)
def test_sin_cos_derivative(a, da):
    x = Dual(a, da)
    s = ad.sin(x)
    c = ad.cos(x)
    assert s.re == pytest.approx(math.sin(a))
    assert s.ep == pytest.approx(math.cos(a) * da)
    assert c.ep == pytest.approx(-math.sin(a) * da)


def test_division():
    x = Dual(3.0, 1.0)
    y = 1.0 / x
    assert y.re == pytest.approx(1.0 / 3.0)
    assert y.ep == pytest.approx(-1.0 / 9.0)
    z = Dual(2.0, 0.5) / Dual(4.0, -1.0)
    assert z.re == pytest.approx(0.5)
    # quotient rule: (0.5*4 - 2*(-1)) / 16
    assert z.ep == pytest.approx((0.5 * 4.0 + 2.0) / 16.0)


def test_nested_second_derivative():
    # f(t) = sin(t)**2, f''(t) = 2 cos(2t)
    t0 = 0.37
    t = Dual(Dual(t0, 1.0), Dual(1.0, 0.0))
    s = ad.sin(t)
    f = s * s
    assert ad.value(f) == pytest.approx(math.sin(t0) ** 2)
    assert f.ep.ep == pytest.approx(2 * math.cos(2 * t0))


def test_atan2_gradient_matches_fd():
    def fn(xs):
        return [ad.atan2(xs[1], xs[0])]

    xs = [0.8, -0.4]
    J = ad.jacobian(fn, xs)
    Jfd = ad.fd_jacobian(fn, xs, 1e-6)
    assert np.allclose(J, Jfd, atol=1e-8)


def test_jacobian_of_polar_map():
    def fn(xs):
        r, th = xs
        return [r * ad.cos(th), r * ad.sin(th)]

    r0, th0 = 1.3, 0.6
    J = ad.jacobian(fn, [r0, th0])
    expected = np.array(
        [
            [math.cos(th0), -r0 * math.sin(th0)],
            [math.sin(th0), r0 * math.cos(th0)],
        ]
    )
    assert np.allclose(J, expected, atol=1e-14)


def test_array_coefficients_branch_through_numpy():
    xs = np.linspace(0.0, 1.0, 7)
    d = Dual(xs, np.ones_like(xs))
    out = ad.sin(d) * d
    assert np.allclose(out.re, np.sin(xs) * xs)
    assert np.allclose(out.ep, np.cos(xs) * xs + np.sin(xs))


def test_numpy_does_not_absorb_duals():
    d = np.float64(2.0) * Dual(3.0, 1.0)
    assert isinstance(d, Dual)
    assert d.re == pytest.approx(6.0)


def test_sqrt_and_atan_chain():
    x = Dual(2.0, 1.0)
    y = ad.atan(ad.sqrt(x))
    assert y.re == pytest.approx(math.atan(math.sqrt(2.0)))
    # d/dx atan(sqrt(x)) = 1 / (2 sqrt(x) (1 + x))
    assert y.ep == pytest.approx(1.0 / (2.0 * math.sqrt(2.0) * 3.0))


# ---------------------------------------------------------------------------
# vector mode: one pass with a direction axis equals k scalar jvp passes
# ---------------------------------------------------------------------------

def _leaves(e):
    """The float arrays inside a (nested) dual entry, depth first."""
    if isinstance(e, Dual):
        return _leaves(e.re) + _leaves(e.ep)
    return [np.asarray(e, dtype=float)]


def assert_columns_match_jvp(fn, xs, shape=()):
    """jacobian_columns(fn, xs) against one jvp per unit vector, bit for bit."""
    k = len(xs)
    cols = ad.jacobian_columns(fn, xs)
    assert len(cols) == k
    for j, col in enumerate(cols):
        _, want = ad.jvp(fn, xs, [float(i == j) for i in range(k)])
        assert len(col) == len(want)
        for got, ref in zip(col, want):
            g, r = _leaves(got), _leaves(ref)
            assert len(g) == len(r)
            for a, b in zip(g, r):
                assert (np.broadcast_to(a, shape).tobytes()
                        == np.broadcast_to(b, shape).tobytes()), (j, a, b)


def _chart_representatives():
    """A chart representative and float chart coords for every catalog map
    and every groupoid's source map, at one sampled point each."""
    maps = dict(catalog_maps())
    for gname, make in GROUPOIDS.items():
        maps[f"{gname}/alpha"] = make().alpha
    rng = np.random.default_rng(5)
    for name, f in sorted(maps.items()):
        p = f.source.point_from_ambient(f.source.sample(rng))
        cj = int(f.target.best_chart(f.apply_batch(p.ambient)))
        yield pytest.param(f.local(p.chart_id, cj),
                           [float(c) for c in p.coords], id=name)


@pytest.mark.parametrize("rep,coords", list(_chart_representatives()))
def test_jacobian_columns_match_jvp_passes(rep, coords):
    rng = np.random.default_rng(6)
    assert_columns_match_jvp(rep, coords)
    nested = [Dual(x, c) for x, c in zip(coords, rng.normal(size=len(coords)))]
    assert_columns_match_jvp(rep, nested)
    batch = [x + 1e-3 * rng.normal(size=(5, 16)) for x in coords]
    assert_columns_match_jvp(rep, batch, (5, 16))


def test_jacobian_columns_of_constant_outputs_and_no_directions():
    def fn(xs):
        return [xs[0] * xs[1], -1.5, np.full((5, 16), -1.5)]

    assert_columns_match_jvp(fn, [0.3, -0.7], (5, 16))
    batch = [np.linspace(-1.0, 1.0, 80).reshape(5, 16), np.ones((5, 16))]
    assert_columns_match_jvp(fn, batch, (5, 16))
    assert ad.jacobian_columns(fn, []) == []
    assert ad.jacobian(lambda xs: [1.0, 2.0], []).shape == (2, 0)


def test_newton_does_not_accept_a_nan_residual():
    # at x0 the residual of row 1 is [0, nan]; a NaN after the first entry
    # is no root, and one such row makes the stacked call None
    residual = lambda x: [x[0] - 1.0, x[1] + np.array([0.0, math.nan])]
    assert newton(residual, np.ones((2, 2)), 1e-12, 20, 1e8) is None


def test_newton_rows_take_the_iterates_of_their_lone_solves():
    # x1 = x0 / 2 and x0^3 = c: the rows stop after different numbers of
    # steps, and a stopped row must not move while the others step on
    res = lambda c: lambda x: [x[1] - 0.5 * x[0], x[0] * x[0] * x[0] - c]
    c = np.array([1.0, 1.5, 8.0, 100.0, -27.0])
    x0 = np.tile([1.0, 0.5], (len(c), 1))
    got, steps = newton(res(c), x0, 1e-9, 50, 1e8), set()
    for i in range(len(c)):
        lone = lambda k: newton(res(c[i:i + 1]), x0[:1], 1e-9, k, 1e8)
        assert np.array_equal(got[i:i + 1], lone(50))
        steps.add(min(k for k in range(51) if lone(k) is not None))
    assert len(steps) >= 3


def test_linsolve_pivots_and_differentiates_packed_duals():
    # A(t) X = B(t) with d/dt carried by duals; column 0 pivots on row 2
    def system(t):
        A = [[0.0 * t, 1.0 + t, 2.0], [3.0 * t, 1.0, -1.0], [4.0, t * t, 0.5]]
        return ad.pack(A), ad.pack([[1.0, 0.5], [t, 0.0], [-2.0, 1.0 - t]])

    t0, h = 0.3, 1e-6
    X = linsolve(*system(Dual(t0, 1.0)))
    xp, xm = (linsolve(*system(t0 + s)) for s in (h, -h))
    assert np.allclose(X.ep, (xp - xm) / (2 * h), atol=1e-7)


def test_linsolve_second_order_parts_match_central_differences():
    def system(t):
        A = [[2.0 + t * t, t, 1.0], [1.0, 3.0, t], [t * t * t, 1.0, 4.0 - t]]
        return ad.pack(A), ad.pack([[1.0], [t], [1.0 - t * t]])

    t0, h = 0.7, 1e-4
    X = linsolve(*system(Dual(Dual(t0, 1.0), Dual(1.0, 0.0))))
    xp, x0, xm = (linsolve(*system(t0 + s)) for s in (h, 0.0, -h))
    assert X.re.re.tobytes() == x0.tobytes()
    for first in (X.re.ep, X.ep.re):
        assert np.allclose(first, (xp - xm) / (2 * h), atol=1e-8)
    assert np.allclose(X.ep.ep, (xp - 2 * x0 + xm) / h ** 2, atol=1e-6)


def _random_system(rng, n, m, dual_a, dual_rhs, k=None):
    """A random system whose duals carry a scalar or k-direction part."""
    def entry(dual):
        x = float(rng.normal())
        if not dual:
            return x
        return Dual(x, float(rng.normal()) if k is None else rng.normal(size=k))

    A = [[entry(dual_a) for _ in range(n)] for _ in range(n)]
    return A, [[entry(dual_rhs) for _ in range(n)] for _ in range(m)]


def _linsolve_rows(A, rhs):
    """linsolve on A as rows of entries and right-hand sides as lists of
    entries; returns the solutions the same way."""
    X = ad.unpack(linsolve(ad.pack(A), ad.pack(list(zip(*rhs)))))
    return [list(x) for x in zip(*X)]


@pytest.mark.parametrize("dual_a,dual_rhs", [(False, False), (False, True),
                                             (True, True)])
def test_linsolve_values_are_the_bits_of_numpy_solve(dual_a, dual_rhs):
    rng = np.random.default_rng(8)
    for n in (1, 2, 5):
        A, rhs = _random_system(rng, n, 3, dual_a, dual_rhs)
        A, B = ad.pack(A), ad.pack(list(zip(*rhs)))
        want = np.linalg.solve(ad.value(A), ad.value(B))
        assert ad.value(linsolve(A, B)).tobytes() == want.tobytes()


def test_linsolve_with_float_matrix_and_mixed_right_hand_sides():
    # a float A solves the value and the derivative part of B alike, and a
    # float entry of B has derivative 0
    rng = np.random.default_rng(9)
    A, rhs = _random_system(rng, 4, 2, False, True)
    rhs[1][2] = 0.7
    A, B = ad.pack(A), ad.pack(list(zip(*rhs)))
    assert B.ep[2, 1] == 0.0
    X = linsolve(A, B)
    for got, b in ((X.re, B.re), (X.ep, B.ep)):
        assert got.tobytes() == np.linalg.solve(A, b).tobytes()


def test_linsolve_gives_nan_for_a_nan_entry():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    A[1, 0] = np.nan
    assert np.isnan(linsolve(A, np.eye(2))).all()
    X = linsolve(Dual(A, np.ones((2, 2))), Dual(np.eye(2), np.eye(2)))
    assert np.isnan(X.re).all() and np.isnan(X.ep).all()


def test_linsolve_raises_only_on_an_exactly_singular_matrix():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularNormalization):
        linsolve(A, np.eye(2))
    with pytest.raises(SingularNormalization):
        linsolve(Dual(A, np.eye(2)), np.eye(2))
    stack = np.stack([np.eye(2), A])  # one singular node of two
    with pytest.raises(SingularNormalization):
        linsolve(stack, np.ones((2, 1)))
    with pytest.raises(np.linalg.LinAlgError):  # not square, not singular
        linsolve(np.ones((2, 3)), np.ones((2, 1)))


@pytest.mark.parametrize("dual_a", [False, True])
def test_linsolve_on_direction_axes_equals_one_solve_per_direction(dual_a):
    rng = np.random.default_rng(10)
    k = 3
    A, rhs = _random_system(rng, 4, 2, dual_a, True, k)
    rhs[0][1] = Dual(0.25, 0.0)  # one entry without a direction axis
    got = _linsolve_rows(A, rhs)
    for j in range(k):
        def pick(e):
            return Dual(e.re, e.ep if np.ndim(e.ep) == 0 else e.ep[j]) \
                if isinstance(e, Dual) else e

        Aj = [[pick(e) for e in row] for row in A]
        want = _linsolve_rows(Aj, [[pick(e) for e in b] for b in rhs])
        for b, w in zip(got, want):
            assert [(x.re, x.ep[j]) for x in b] == [(x.re, x.ep) for x in w]


def test_jacobian_columns_refuses_points_with_direction_axes():
    def fn(xs):
        return [xs[0] * xs[1]]

    with pytest.raises(ValueError, match="direction axis"):
        ad.jacobian_columns(fn, [Dual(0.3, np.array([1.0, 0.0])), 0.7])


# name -> (function, draw of its arguments): each elementary function of ad
ELEMENTARY = {
    "sin": (ad.sin, lambda rng, n: [rng.uniform(-20.0, 20.0, n)]),
    "cos": (ad.cos, lambda rng, n: [rng.uniform(-20.0, 20.0, n)]),
    "sqrt": (ad.sqrt, lambda rng, n: [rng.uniform(0.0, 100.0, n)]),
    "atan": (ad.atan, lambda rng, n: [10.0 * rng.normal(size=n)]),
    "atan2": (ad.atan2, lambda rng, n: [rng.normal(size=n),
                                        rng.normal(size=n)]),
}


@pytest.mark.parametrize("name", sorted(ELEMENTARY))
def test_numbers_and_arrays_round_alike(name):
    # one rounding path: a number gets the bits its entry gets in an array,
    # values and derivatives alike
    fn, draw = ELEMENTARY[name]
    args = draw(np.random.default_rng(20), 20_000)
    alone = [fn(*map(float, a)) for a in zip(*args)]
    assert {type(v) for v in alone} == {float}
    assert fn(*args).tobytes() == np.array(alone).tobytes()
    duals = [a[:1000] for a in args]
    batch = fn(*(Dual(a, 1.0) for a in duals))
    for i, a in enumerate(zip(*duals)):
        one = fn(*(Dual(float(x), 1.0) for x in a))
        assert (batch.re[i].hex(), batch.ep[i].hex()) == \
            (one.re.hex(), one.ep.hex())


def _node_bits(x):
    return [np.asarray(e, dtype=float).tobytes() for e in _leaves(x)]


@pytest.mark.parametrize("dual_a,dual_rhs,k", [
    (False, False, None), (False, True, None), (True, True, None),
    (False, True, 3), (True, True, 3)])
def test_linsolve_on_stacks_solves_each_node_alone(dual_a, dual_rhs, k):
    # entries with a trailing node axis: each node pivots on its own rows
    # and gets the bits of its own solve
    rng = np.random.default_rng(11)
    n, nodes = 4, 16

    def entry(dual):
        x = rng.normal(size=nodes)
        if not dual:
            return x
        return Dual(x, rng.normal(size=nodes if k is None else (k, nodes)))

    A = [[entry(dual_a) for _ in range(n)] for _ in range(n)]
    rhs = [[entry(dual_rhs) for _ in range(n)] for _ in range(2)]
    got = _linsolve_rows(A, rhs)
    pivots = set()
    for i in range(nodes):
        Ai = [[ad.take(e, i) for e in row] for row in A]
        want = _linsolve_rows(Ai, [[ad.take(e, i) for e in b] for b in rhs])
        assert [[_node_bits(ad.take(x, i)) for x in b] for b in got] == \
            [[_node_bits(x) for x in b] for b in want]
        pivots.add(int(np.argmax([abs(ad.value(row[0])) for row in Ai])))
    assert len(pivots) > 1


def test_take_and_scatter_are_inverse():
    x = Dual(np.arange(5.0), np.arange(10.0).reshape(2, 5))
    rows = [np.array([0, 3]), np.array([1, 2, 4])]
    back = ad.scatter([ad.take(x, r) for r in rows], rows, 5)
    assert _node_bits(back) == _node_bits(x)
    # a part without axes is the same at every node
    mixed = ad.scatter([Dual(1.0, 0.0), Dual(np.array([2.0, 3.0]),
                                             np.array([4.0, 5.0]))],
                       [np.array([1]), np.array([0, 2])], 3)
    assert mixed.re.tolist() == [2.0, 1.0, 3.0]
    assert mixed.ep.tolist() == [4.0, 0.0, 5.0]
