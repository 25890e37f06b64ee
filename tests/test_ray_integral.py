"""The one ray integral of the quadrature against the three it replaced.

Test-local copies of the earlier _ray (one interval [a, b]), _intervals
(consecutive edges of one ray) and _ray_tail ([r0, inf)) each held their own
closed-form primitive and their own custom-profile sampling.  Now
quadrature._intervals holds both once, over consecutive intervals whose last
edge may be inf, and _ray is its one-interval form.  Every case must agree
bit for bit: frozen psi (scalar and per direction on the 8192 polar rays)
and sampled custom profiles, finite pairs, consecutive edges, moment edges
from the origin and tails.
"""

import numpy as np
import pytest

from fracsys import (make_anisotropic_kernel, make_custom_kernel, make_fractional_kernel,
                     normalization_constant)
from fracsys.quadrature import (_PSI_SUBDIV, _THETA_NODES, _intervals, _polar_rays,
                                _profile_psi, _ray, _ray_psi)


def exponent(kernel, extra_power):
    return (extra_power + 1.0 - kernel.dim) - 2.0 * kernel.s


def old_ray(kernel, psi, a, b, extra_power):
    q = exponent(kernel, extra_power)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if psi is None:
        edges = a[..., None] + (b - a)[..., None] * np.linspace(0.0, 1.0, _PSI_SUBDIV + 1)
        lo, hi = edges[..., :-1], edges[..., 1:]
        return np.sum(old_ray(kernel, _profile_psi(kernel, 0.5 * (lo + hi)),
                              lo, hi, extra_power), axis=-1)
    if abs(q) < 1e-12:
        return psi * (np.log(b) - np.log(a))
    return psi * (b**q - a**q) / q


def old_intervals(kernel, psi, edges, extra_power):
    if psi is None:
        return old_ray(kernel, None, edges[:-1], edges[1:], extra_power)
    q = exponent(kernel, extra_power)
    if abs(q) < 1e-12:
        return psi * np.diff(np.log(edges))
    F = edges**q
    return psi * (F[1:] - F[:-1]) / q


def old_ray_tail(kernel, psi, r0, extra_power):
    q = exponent(kernel, extra_power)
    if psi is None:
        edges = np.asarray(r0, dtype=float)[..., None] * np.logspace(0.0, 6.0, 481)
        rf = edges[..., -1]
        return (np.sum(old_ray(kernel, None, edges[..., :-1], edges[..., 1:], extra_power),
                       axis=-1)
                + old_ray_tail(kernel, _profile_psi(kernel, rf), rf, extra_power))
    return psi * np.asarray(r0, dtype=float) ** q / -q


def custom(n, s):
    c = normalization_constant(n, s)
    p = n + 2.0 * s
    return make_custom_kernel(lambda r: c * r ** (-p) * (1.5 + 0.5 * np.cos(r)), s, n,
                              c / (1.0 - s), 2.0 * c / (1.0 - s))


th = 0.4
ROTATED = [[1.4 * np.cos(th), -0.7 * np.sin(th)], [1.4 * np.sin(th), 0.7 * np.cos(th)]]
KERNELS = {
    "fractional-1d": make_fractional_kernel(1, 0.3),
    "fractional-2d": make_fractional_kernel(2, 0.7),
    "anisotropic-1x1": make_anisotropic_kernel([[1.3]], 0.4),
    "rotated-2x2": make_anisotropic_kernel(ROTATED, 0.6),
    "custom-1d": custom(1, 0.55),
    "custom-2d": custom(2, 0.3),
}


def rays(kernel):
    """(psi, a, b) pairs to integrate over: one direction with a scalar psi
    (a scalar and a vector of intervals), and in 2-d every polar ray of the
    box |y|_inf = 0.9 with psi per direction.  A sampled custom psi on all
    8192 rays would hold 8192 x 480 x 48 profile values per tail, so its
    per-direction cases take every 512th ray."""
    e = 1.0 if kernel.dim == 1 else np.array([0.6, 0.8])
    psi = _ray_psi(kernel, e)
    out = [(psi, 0.7, 1.9), (psi, np.linspace(0.3, 2.0, 9), np.linspace(0.4, 3.5, 9))]
    if kernel.dim == 2:
        _, r, psi = _polar_rays(kernel, 0.9)
        if psi is None:
            r = r[:: _THETA_NODES // 16]
        out.append((psi, 0.5 * r, r))
    return out


def powers(kernel):
    """The shell-mass and tail power n - 1 (q = -2s) and the moment power
    n + 1 (q = 2 - 2s)."""
    return (kernel.dim - 1, kernel.dim + 1)


def per_ray(psi):
    return psi if psi is None or np.ndim(psi) == 0 else psi[:, None]


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_pairs_match_the_old_ray(kernel):
    for psi, a, b in rays(kernel):
        for p in powers(kernel):
            assert np.array_equal(_ray(kernel, psi, a, b, p), old_ray(kernel, psi, a, b, p))
        # the moment from the origin itself
        p = kernel.dim + 1
        assert np.array_equal(_ray(kernel, psi, 0.0, b, p), old_ray(kernel, psi, 0.0, b, p))


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_consecutive_edges_match_the_old_intervals(kernel):
    psi = _ray_psi(kernel, 1.0 if kernel.dim == 1 else np.array([0.6, 0.8]))
    h = 1.0 / 16
    edges = (np.arange(33) + 0.5) * h
    moment_edges = np.concatenate([[0.0], edges[1:7]])
    for p in powers(kernel):
        assert np.array_equal(_intervals(kernel, psi, edges, p),
                              old_intervals(kernel, psi, edges, p))
    p = kernel.dim + 1
    assert np.array_equal(_intervals(kernel, psi, moment_edges, p),
                          old_intervals(kernel, psi, moment_edges, p))
    # several rays at once, each with its own psi, against the old pairs
    for psi, _, r in rays(kernel)[2:]:
        ray_edges = r[:, None] * np.linspace(0.25, 1.0, 7)
        for p in powers(kernel):
            assert np.array_equal(
                _intervals(kernel, per_ray(psi), ray_edges, p),
                old_ray(kernel, per_ray(psi), ray_edges[:, :-1], ray_edges[:, 1:], p))


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_tails_match_the_old_ray_tail(kernel):
    p = kernel.dim - 1
    for psi, _, r0 in rays(kernel):
        assert np.array_equal(_ray(kernel, psi, r0, np.inf, p),
                              old_ray_tail(kernel, psi, r0, p))
    # a tail after finite intervals on one ray
    psi = rays(kernel)[0][0]
    edges = np.array([0.5, 0.75, 1.25, 2.0])
    expected = np.concatenate([np.atleast_1d(old_intervals(kernel, psi, edges, p)),
                               np.atleast_1d(old_ray_tail(kernel, psi, edges[-1], p))])
    assert np.array_equal(_intervals(kernel, psi, np.append(edges, np.inf), p), expected)


def test_the_logarithmic_primitive_matches():
    # 1-d, p = 1, s = 1/2: q = 0, as in the periodic line's remainder cells
    kernel = make_fractional_kernel(1, 0.5)
    assert exponent(kernel, 1) == 0.0
    psi = _ray_psi(kernel, 1.0)
    mu = 64.5 * 2.0 + np.arange(1, 17) / 8.0
    assert np.array_equal(_ray(kernel, psi, mu - 1 / 16, mu + 1 / 16, 1),
                          old_ray(kernel, psi, mu - 1 / 16, mu + 1 / 16, 1))
    edges = (np.arange(17) + 0.5) / 8.0
    assert np.array_equal(_intervals(kernel, psi, edges, 1),
                          old_intervals(kernel, psi, edges, 1))
