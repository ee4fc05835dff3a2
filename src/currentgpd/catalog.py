"""Catalog manifolds with closed-form exponentials, logs, and samplers.

These are the concrete spaces every higher-level construction instantiates:
Euclidean spaces, the circle (two angle charts), the 2-sphere (stereographic
pair), the torus, the rotation group SO(3) (exponential charts at four base
rotations), finite products, and discrete finite sets.  The Lie groups among
them (Euclidean spaces under translation, the circle, SO(3)) carry their
group structure: ``mul``, ``invert`` and ``identity``, and SO(3) its
``commutator``.
"""

from __future__ import annotations

import math

import numpy as np

from . import ad
from .ad import value, where
from .manifolds import (Chart, ChartedManifold, ProductManifold, SmoothMap,
                        component_major, components_first, merge_components,
                        path_sampler)

TWO_PI = 2.0 * math.pi


def _trig_path(params, rng, closed, n, amp=0.8, winding=0.0):
    """n random band-limited scalar paths over `params`, stacked as (n, nodes).

    Each has |f'| <= |winding| + amp; `winding` is a scalar or an (n, 1)
    column.  The n Dirichlet budgets are drawn first, then the n offsets.
    """
    x = np.asarray(params, dtype=float)
    modes = 3
    budget = rng.dirichlet(np.ones(2 * modes), size=n) * amp
    out = np.full((n, x.size), rng.uniform(-math.pi, math.pi, size=(n, 1)))
    if closed:
        out = out + winding * x
    for j in range(1, modes + 1):
        a = budget[:, 2 * j - 2, None] / j
        b = budget[:, 2 * j - 1, None] / j
        jx = j * x if closed else j * x * TWO_PI
        out = out + a * np.cos(jx) + b * np.sin(jx)
    return out


# ---------------------------------------------------------------------------
# Euclidean space
# ---------------------------------------------------------------------------

class Euclidean(ChartedManifold):
    """R^n with one identity chart; a Lie group under translation."""

    def __init__(self, n, box=2.0):
        self.box = box
        self.identity = (0.0,) * n

        def margin(comps):
            probe = comps[0] if comps else 0.0
            return probe * 0.0 + 1e9

        chart = Chart("id", margin, lambda c: list(c), lambda c: list(c))
        super().__init__(f"real{n}", n, n, [chart], injectivity_radius=np.inf)

    def exp_amb(self, p, v):
        return [pi + vi for pi, vi in zip(p, v)]

    def log_amb(self, p, q):
        return [qi - pi for pi, qi in zip(p, q)]

    def sample(self, rng, n=None):
        shape = (self.dim,) if n is None else (n, self.dim)
        return rng.uniform(-self.box, self.box, size=shape)

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        return merge_components([_trig_path(params, rng, closed, n, amp=1.0)
                                 for _ in range(self.dim)])

    # group structure (translations)
    @staticmethod
    def mul(a, b):
        return [x + y for x, y in zip(a, b)]

    @staticmethod
    def invert(a):
        return [-x for x in a]


# ---------------------------------------------------------------------------
# Circle
# ---------------------------------------------------------------------------

def _angle_a(comps):
    return ad.atan2(comps[1], comps[0])


class Circle(ChartedManifold):
    """Unit circle in R^2 with the two standard angle charts."""

    def __init__(self):
        def margin_a(comps):
            th = np.arctan2(comps[1], comps[0])
            return math.pi - np.abs(th)

        def fwd_a(comps):
            return [_angle_a(comps)]

        def margin_b(comps):
            th = np.mod(np.arctan2(comps[1], comps[0]), TWO_PI)
            return np.minimum(th, TWO_PI - th)

        def fwd_b(comps):
            th = _angle_a(comps)
            # branch on the underlying value; smooth on the chart domain
            shift = where(np.asarray(value(th)) > 0, 0.0, TWO_PI)
            return [th + shift]

        def inv(comps):
            return [ad.cos(comps[0]), ad.sin(comps[0])]

        charts = [Chart("angle(-pi,pi)", margin_a, fwd_a, inv),
                  Chart("angle(0,2pi)", margin_b, fwd_b, inv)]
        super().__init__("circle", 1, 2, charts,
                         injectivity_radius=math.pi - 1e-3)

    def point_at_angle(self, theta):
        return self.point_from_ambient([math.cos(theta), math.sin(theta)])

    def exp_amb(self, p, v):
        s = p[0] * v[1] - p[1] * v[0]
        c, sn = ad.cos(s), ad.sin(s)
        return [c * p[0] - sn * p[1], sn * p[0] + c * p[1]]

    def log_amb(self, p, q):
        s = ad.atan2(p[0] * q[1] - p[1] * q[0], p[0] * q[0] + p[1] * q[1])
        return [-s * p[1], s * p[0]]

    def geodesic_distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
        return np.abs(np.arctan2(cross, dot))

    def sample(self, rng, n=None):
        th = rng.uniform(-math.pi, math.pi, size=() if n is None else (n,))
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        w = rng.integers(-1, 2, size=(n, 1)).astype(float) if closed else 0.0
        th = _trig_path(params, rng, closed, n, amp=0.8, winding=w)
        return merge_components([np.cos(th), np.sin(th)])

    # group structure (unit complex numbers)
    @staticmethod
    def mul(a, b):
        return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]

    @staticmethod
    def invert(a):
        return [a[0], -a[1]]

    identity = (1.0, 0.0)


# ---------------------------------------------------------------------------
# 2-sphere
# ---------------------------------------------------------------------------

class Sphere(ChartedManifold):
    """Unit 2-sphere with the two stereographic charts."""

    def __init__(self):
        def margin_n(comps):
            return 1.0 - comps[2]

        def fwd_n(comps):
            d = 1.0 - comps[2]
            return [comps[0] / d, comps[1] / d]

        def margin_s(comps):
            return 1.0 + comps[2]

        def fwd_s(comps):
            d = 1.0 + comps[2]
            return [comps[0] / d, comps[1] / d]

        def inv_n(comps):
            u, v = comps
            s = u * u + v * v
            d = 1.0 + s
            return [2.0 * u / d, 2.0 * v / d, (s - 1.0) / d]

        def inv_s(comps):
            u, v = comps
            s = u * u + v * v
            d = 1.0 + s
            return [2.0 * u / d, 2.0 * v / d, (1.0 - s) / d]

        charts = [Chart("stereo-north", margin_n, fwd_n, inv_n),
                  Chart("stereo-south", margin_s, fwd_s, inv_s)]
        super().__init__("sphere", 2, 3, charts,
                         injectivity_radius=math.pi - 1e-3)

    def exp_amb(self, p, v):
        t = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        tv = value(t)
        small = np.asarray(tv) < 1e-14
        tsafe = where(small, 1.0, t)
        r = ad.sqrt(tsafe)
        c = where(small, 1.0 - t / 2.0 + t * t / 24.0, ad.cos(r))
        s = where(small, 1.0 - t / 6.0 + t * t / 120.0, ad.sin(r) / r)
        return [c * pi + s * vi for pi, vi in zip(p, v)]

    def log_amb(self, p, q):
        c = sum(pi * qi for pi, qi in zip(p, q))
        u = [qi - c * pi for pi, qi in zip(p, q)]
        s = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        sv = value(s)
        small = np.asarray(sv) < 1e-16
        ssafe = where(small, 1.0, s)
        r = ad.sqrt(ssafe)
        g = where(small, 1.0, ad.atan2(r, c) / r)
        return [g * ui for ui in u]

    def geodesic_distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = np.clip(np.sum(a * b, axis=-1), -1.0, 1.0)
        return np.arccos(d)

    def sample(self, rng, n=None):
        shape = (3,) if n is None else (n, 3)
        v = rng.normal(size=shape)
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        # demeaned perturbations keep the norm bounded away from zero
        base = self.sample(rng, n)
        cols = [_trig_path(params, rng, closed, n, amp=0.6) for _ in range(3)]
        raw = base[:, None, :] + 0.3 * np.stack(
            [c - np.mean(c, axis=-1, keepdims=True) for c in cols], axis=-1)
        return component_major(
            raw / np.linalg.norm(raw, axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# SO(3)
# ---------------------------------------------------------------------------

def _mat9_mul(a, b):
    out = []
    for i in range(3):
        for j in range(3):
            out.append(a[3 * i + 0] * b[0 + j] + a[3 * i + 1] * b[3 + j]
                       + a[3 * i + 2] * b[6 + j])
    return out


def _mat9_T(a):
    return [a[0], a[3], a[6], a[1], a[4], a[7], a[2], a[5], a[8]]


def _rodrigues(xi):
    """exp of the skew matrix of xi, safe at 0 (series in t = |xi|^2)."""
    x, y, z = xi
    t = x * x + y * y + z * z
    small = np.asarray(value(t)) < 1e-12
    tsafe = where(small, 1.0, t)
    r = ad.sqrt(tsafe)
    A = where(small, 1.0 - t / 6.0 + t * t / 120.0, ad.sin(r) / r)
    B = where(small, 0.5 - t / 24.0 + t * t / 720.0, (1.0 - ad.cos(r)) / tsafe)
    # I + A*hat(xi) + B*hat(xi)^2
    return [1.0 + B * (-z * z - y * y), A * (-z) + B * (x * y), A * y + B * (x * z),
            A * z + B * (x * y), 1.0 + B * (-z * z - x * x), A * (-x) + B * (y * z),
            A * (-y) + B * (x * z), A * x + B * (y * z), 1.0 + B * (-y * y - x * x)]


def _so3_log(R):
    """Rotation vector of R via the quaternion, smooth for angles < pi."""
    tr = R[0] + R[4] + R[8]
    w = ad.sqrt(1.0 + tr) / 2.0
    qx = (R[7] - R[5]) / (4.0 * w)
    qy = (R[2] - R[6]) / (4.0 * w)
    qz = (R[3] - R[1]) / (4.0 * w)
    u = (qx * qx + qy * qy + qz * qz) / (w * w)
    small = np.asarray(value(u)) < 1e-14
    usafe = where(small, 1.0, u)
    ru = ad.sqrt(usafe)
    atanc = where(small, 1.0 - u / 3.0 + u * u / 5.0, ad.atan(ru) / ru)
    f = 2.0 * atanc / w
    return [qx * f, qy * f, qz * f]


def _so3_angle(R):
    tr = R[..., 0] + R[..., 4] + R[..., 8]
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


_SO3_BASES = [
    np.eye(3),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
]


class RotationGroup(ChartedManifold):
    """SO(3) embedded in R^9 (row-major), exponential charts at 4 base rotations."""

    CHART_RADIUS = 3.0 * math.pi / 4.0

    def __init__(self):
        charts = [self._chart_at(B) for B in _SO3_BASES]
        super().__init__("so3", 3, 9, charts,
                         injectivity_radius=math.pi - 1e-3)

    @staticmethod
    def _chart_at(B):
        Bf = [float(x) for x in B.reshape(9)]
        BT = _mat9_T(Bf)

        def margin(comps):
            rel = _mat9_mul(BT, list(comps))
            stacked = np.stack([np.asarray(c, dtype=float) for c in rel], axis=-1)
            return RotationGroup.CHART_RADIUS - _so3_angle(stacked)

        def fwd(comps):
            return _so3_log(_mat9_mul(BT, list(comps)))

        def inv(comps):
            return _mat9_mul(Bf, _rodrigues(list(comps)))

        return Chart("exp-chart", margin, fwd, inv)

    def exp_amb(self, p, v):
        xi_mat = _mat9_mul(_mat9_T(list(p)), list(v))
        xi = [(xi_mat[7] - xi_mat[5]) / 2.0,
              (xi_mat[2] - xi_mat[6]) / 2.0,
              (xi_mat[3] - xi_mat[1]) / 2.0]
        return _mat9_mul(list(p), _rodrigues(xi))

    def log_amb(self, p, q):
        xi = _so3_log(_mat9_mul(_mat9_T(list(p)), list(q)))
        x, y, z = xi
        hat = [0.0 * x, -z, y, z, 0.0 * x, -x, -y, x, 0.0 * x]
        return _mat9_mul(list(p), hat)

    def speed(self, p_amb, v_amb):
        # the bi-invariant metric <A, B> = tr(A^T B) / 2
        return super().speed(p_amb, v_amb) / math.sqrt(2.0)

    def geodesic_distance(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        rel = np.einsum("...ji,...jk->...ik", a.reshape(*a.shape[:-1], 3, 3),
                        b.reshape(*b.shape[:-1], 3, 3))
        return _so3_angle(rel.reshape(*rel.shape[:-2], 9))

    def sample(self, rng, n=None):
        shape = (4,) if n is None else (n, 4)
        q = rng.normal(size=shape)
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
        w, x, y, z = components_first(q)
        return merge_components([
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ])

    @path_sampler
    def sample_path(self, params, rng, closed, n):
        base = self.sample(rng, n)
        xi = np.stack([0.8 * _trig_path(params, rng, closed, n, amp=0.6)
                       for _ in range(3)], axis=-1)
        xi = xi - np.mean(xi, axis=-2, keepdims=True)
        rot = _rodrigues([xi[..., 0], xi[..., 1], xi[..., 2]])
        return merge_components(
            _mat9_mul([base[:, None, i] for i in range(9)], rot))

    # group structure
    @staticmethod
    def mul(a, b):
        return _mat9_mul(list(a), list(b))

    @staticmethod
    def invert(a):
        return _mat9_T(list(a))

    @staticmethod
    def commutator(xi, eta):
        """Matrix commutator of hat matrices, in rotation-vector coordinates."""
        return np.cross(xi, eta)

    identity = tuple(np.eye(3).reshape(9))


class Torus(ProductManifold):
    def __init__(self):
        super().__init__([Circle(), Circle()], name="torus")


# ---------------------------------------------------------------------------
# catalog smooth maps (used by classifier suites and tests)
# ---------------------------------------------------------------------------

def circle_squaring(circle=None):
    c = circle or Circle()

    def fn(comps):
        x, y = comps
        return [x * x - y * y, 2.0 * x * y]

    return SmoothMap(c, c, fn, name="circle-square")


def circle_rotation(angle, circle=None):
    c = circle or Circle()
    ca, sa = math.cos(angle), math.sin(angle)

    def fn(comps):
        x, y = comps
        return [ca * x - sa * y, sa * x + ca * y]

    return SmoothMap(c, c, fn, name=f"circle-rotate({angle:.3f})")


def plane_projection():
    def fn(comps):
        return [comps[0]]

    return SmoothMap(Euclidean(2), Euclidean(1), fn, name="plane-projection")


def line_inclusion():
    def fn(comps):
        return [comps[0], comps[0] * 0.0]

    return SmoothMap(Euclidean(1), Euclidean(2), fn, name="line-inclusion")


def exp_cover(circle=None):
    """The covering map t -> (cos t, sin t) from the line onto the circle."""
    c = circle or Circle()
    line = Euclidean(1)

    def fn(comps):
        return [ad.cos(comps[0]), ad.sin(comps[0])]

    def branches(target_amb, near_amb):
        base = math.atan2(target_amb[1], target_amb[0])
        k = round((float(near_amb[0]) - base) / TWO_PI)
        return [np.asarray([base + TWO_PI * (k + d)]) for d in (-1, 0, 1)]

    m = SmoothMap(line, c, fn, name="exp-cover", preimage_branches=branches)
    m.branch_separation = TWO_PI
    return m


def circle_embedding(circle=None):
    c = circle or Circle()

    def fn(comps):
        return [comps[0], comps[1]]

    return SmoothMap(c, Euclidean(2), fn, name="circle-embed")


def constant_circle_map(circle=None):
    c = circle or Circle()

    def fn(comps):
        zero = comps[0] * 0.0
        return [zero + 1.0, zero]

    return SmoothMap(c, c, fn, name="circle-constant")


def catalog_maps():
    c = Circle()
    return {
        "circle-square": circle_squaring(c),
        "circle-rotate": circle_rotation(0.35, c),
        "plane-projection": plane_projection(),
        "line-inclusion": line_inclusion(),
        "exp-cover": exp_cover(c),
        "circle-embed": circle_embedding(c),
        "circle-constant": constant_circle_map(c),
    }
