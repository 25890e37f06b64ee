import itertools

import numpy as np
import pytest

from fracsys import (GridSpec, GrowthBounds, dyadic_ledger, field_from_function,
                     smallest_enclosing_ball, zero_rule)
from fracsys.enclosing import _EPS
from fracsys.errors import DomainError
from fracsys.fields import _ball_node_values


def brute_force_ball_2d(points):
    """Exact O(k^3) oracle: best circle through all pairs (as diameter) and
    all triples (circumcircle) that covers the set, every candidate built and
    checked as one array."""
    pts = np.asarray(points, dtype=float)

    def subsets(r):
        # every r-subset of the points, as r arrays of rows
        idx = np.array(list(itertools.combinations(range(len(pts)), r)), dtype=int)
        return [pts[col] for col in idx.reshape(-1, r).T]

    p, q = subsets(2)
    centers = [(p + q) / 2]
    radii = [np.linalg.norm(p - q, axis=1) / 2]
    a, b, c = subsets(3)
    d = 2 * (a[:, 0] * (b[:, 1] - c[:, 1]) + b[:, 0] * (c[:, 1] - a[:, 1])
             + c[:, 0] * (a[:, 1] - b[:, 1]))
    keep = ~(np.abs(d) < 1e-14)
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    aa, bb, cc = (np.sum(v * v, axis=1) for v in (a, b, c))
    ux = (aa * (b[:, 1] - c[:, 1]) + bb * (c[:, 1] - a[:, 1]) + cc * (a[:, 1] - b[:, 1])) / d
    uy = (aa * (c[:, 0] - b[:, 0]) + bb * (a[:, 0] - c[:, 0]) + cc * (b[:, 0] - a[:, 0])) / d
    center = np.stack([ux, uy], axis=-1)
    centers.append(center)
    radii.append(np.linalg.norm(a - center, axis=1))
    centers, radii = np.concatenate(centers), np.concatenate(radii)
    # the farthest point from each candidate center, a block of centers at a time
    reach = np.concatenate([
        np.sqrt(np.max((pts[:, 0] - block[:, :1]) ** 2 + (pts[:, 1] - block[:, 1:]) ** 2,
                       axis=1))
        for block in np.array_split(centers, max(1, len(centers) // 4096))])
    covers = np.flatnonzero(reach <= radii * (1 + 1e-10))
    if covers.size == 0:
        return None
    # the first smallest covering candidate, as a strict "<" scan would keep
    best = covers[np.argmin(radii[covers])]
    return centers[best], float(radii[best])


class TestExactLowDimension:
    def test_interval_1d(self):
        c, r = smallest_enclosing_ball(np.array([[-2.0], [5.0], [1.0]]))
        assert c[0] == pytest.approx(1.5)
        assert r == pytest.approx(3.5)

    def test_two_points(self):
        c, r = smallest_enclosing_ball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(c, [1.0, 0.0])
        assert r == pytest.approx(1.0)

    def test_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        c, r = smallest_enclosing_ball(pts)
        assert r == pytest.approx(np.linalg.norm([1.5, 1.5]), rel=1e-9)

    def test_against_brute_force_random_unit_vectors(self):
        rng = np.random.default_rng(42)
        th = rng.uniform(0, 2 * np.pi, size=100)
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        c, r = smallest_enclosing_ball(pts)
        bc, br = brute_force_ball_2d(pts)
        assert r == pytest.approx(br, rel=1e-9)
        assert np.max(np.linalg.norm(pts - c, axis=1)) <= r * (1 + 1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_against_brute_force_gaussian_clouds(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(rng.integers(4, 25), 2))
        c, r = smallest_enclosing_ball(pts)
        _, br = brute_force_ball_2d(pts)
        assert r == pytest.approx(br, rel=1e-8)

    def test_3d_tetrahedron(self):
        pts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        c, r = smallest_enclosing_ball(pts)
        assert np.allclose(c, 0.0, atol=1e-9)
        assert r == pytest.approx(np.sqrt(3.0), rel=1e-9)

    def test_duplicates(self):
        pts = np.array([[1.0, 0.0]] * 7 + [[0.0, 0.0]])
        c, r = smallest_enclosing_ball(pts)
        assert r == pytest.approx(0.5, rel=1e-9)


class TestHighDimensionHeuristic:
    def test_covers_and_near_optimal(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(60, 5))
        c, r = smallest_enclosing_ball(pts)
        assert np.max(np.linalg.norm(pts - c, axis=1)) <= r * (1 + 1e-10)
        # half the diameter lower-bounds the optimum; 5% heuristic slack
        diam = max(np.linalg.norm(p - q) for p in pts for q in pts)
        assert r <= 1.05 * diam / np.sqrt(2.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            smallest_enclosing_ball(np.zeros((0, 2)))


# -- the per-point Welzl oracle ------------------------------------------------
#
# The earlier exact path, kept here as a test-local oracle: a top-level loop
# and a boundary recursion, each testing one point at a time.  The single
# recursion in fracsys.enclosing must reproduce it bit for bit.

def _oracle_circumball(pts):
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), 0.0
    B = pts[1:] - p0
    G = 2.0 * (B @ B.T)
    rhs = np.sum(B * B, axis=1)
    try:
        lam = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(lam)):
        return None
    center = p0 + lam @ B
    return center, float(np.linalg.norm(center - p0))


def _oracle_inside(ball, p):
    return float(np.linalg.norm(p - ball[0])) <= ball[1] * _EPS + 1e-300


def _oracle_ball_with_boundary(pts, boundary, dim):
    if len(boundary) == dim + 1:
        ball = _oracle_circumball(np.array(boundary))
        if ball is not None:
            return ball
    ball = _oracle_circumball(np.array(boundary)) if boundary else None
    for i in range(len(pts)):
        p = pts[i]
        if ball is None or not _oracle_inside(ball, p):
            trial = _oracle_ball_with_boundary(pts[:i], boundary + [p], dim)
            if trial is not None:
                ball = trial
    return ball


def _oracle_welzl(points, seed=0):
    rng = np.random.default_rng(seed)
    pts = points[rng.permutation(len(points))]
    ball = None
    for i in range(len(pts)):
        if ball is None or not _oracle_inside(ball, pts[i]):
            ball = _oracle_ball_with_boundary(pts[:i], [pts[i]], pts.shape[1])
    return ball


def oracle_ball(points):
    """smallest_enclosing_ball as it was for m <= 3: dedupe, the per-point
    Welzl loop, then the radius tightened to the farthest point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center, radius = _oracle_welzl(np.unique(pts, axis=0))
    radius = max(radius, float(np.max(np.linalg.norm(pts - center, axis=1))))
    return center, radius


def assert_bit_identical(pts):
    c, r = smallest_enclosing_ball(pts)
    oc, orad = oracle_ball(pts)
    assert np.array_equal(c, oc), (c, oc)
    assert r == orad, (r, orad)


def cloud(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, m))
    if kind == "sphere":
        v = rng.normal(size=(n, m))
        return v / np.linalg.norm(v, axis=1, keepdims=True)
    if kind == "duplicated":
        base = rng.normal(size=(max(n // 4, 1), m))
        return base[rng.integers(len(base), size=n)]
    if kind == "collinear":
        return np.outer(rng.uniform(-2.0, 3.0, size=n), rng.normal(size=m)) + rng.normal(size=m)
    if kind == "half-grid":
        return np.round(2.0 * rng.normal(size=(n, m))) / 2.0
    raise ValueError(kind)


class TestMatchesPerPointOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 500, 2000])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "sphere"])
    def test_seeded_clouds(self, kind, m, n):
        assert_bit_identical(cloud(kind, m, n, seed=1000 * m + n))

    @pytest.mark.parametrize("n", [3, 17, 500])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["duplicated", "collinear", "half-grid"])
    def test_degenerate_clouds(self, kind, m, n):
        assert_bit_identical(cloud(kind, m, n, seed=7 * m + n))

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_dyadic_ledger_levels(self, seed):
        """Every level of a seeded smooth two-component field on the 2-d
        h = 1/32 grid, as dyadic_ledger samples it."""
        rng = np.random.default_rng(seed)
        kx, ky = rng.uniform(1.0, 3.0, 2)
        ph = rng.uniform(0.0, 2.0 * np.pi, 3)
        amp = rng.uniform(0.5, 1.5)

        def fn(p):
            x, y = p[:, 0], p[:, 1]
            th = amp * np.sin(kx * x + ph[0]) + 0.5 * amp * np.cos(ky * y + ph[1])
            r = 0.6 + 0.25 * np.sin(x - y + ph[2])
            return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

        u = field_from_function(GridSpec(dim=2, h=1.0 / 32, radius=1.0), fn, zero_rule(), m=2)
        origin = np.zeros(2)
        led = dyadic_ledger(u, origin, 4, GrowthBounds(a=1.0, b=0.0, a_star=0.5, b_star=0.0,
                                                       M=1.0), s=0.5)
        for k in range(5):
            vals = _ball_node_values(u, origin, 0.5**k)
            assert_bit_identical(vals)
            oc, orad = oracle_ball(vals)
            assert np.array_equal(led.centers[k], oc)
            assert led.radii[k] == orad
