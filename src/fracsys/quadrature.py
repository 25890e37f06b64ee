"""Quadrature weights for singular symmetric kernels on uniform grids.

The second-difference form of the operator,

    L u(x) = 1/2 * integral of (u(x+y) + u(x-y) - 2 u(x)) K(y) dy,

is discretized as a weighted sum over grid offsets.  Every admissible kernel
is read along rays as K(r e) = psi(r, e) * r^(-(n+2s)) with psi bounded
between (1-s) lam and (1-s) Lam; the power-law kinds (fractional,
anisotropic) are the ones whose psi is constant along each ray.  The two ray
integrals _ray and _ray_tail integrate the singular power in closed form
against psi (frozen per ray, or sampled per subcell for custom profiles), and
every shell, moment and tail integral below goes through them:

* far field: exact shell mass at the offset node (1-d); in 2-d the ring of
  cells just outside the inner box is averaged over 6 x 6 subcells and the
  cells beyond it carry the midpoint value h^2 K(y);
* near field: the second difference of a C^{1,1} function vanishes
  quadratically at the origin, so the innermost region is integrated against
  moment weights, w_j = y_j^(-2) * integral of y^2 K(y) over the shell in
  1-d, or the matrix moments T_ab = integral of y_a y_b K(y) over an inner
  box in 2-d, sampled through discrete second differences on the first ring
  of nodes;
* tail: beyond the truncation radius the kernel mass is integrated in closed
  form and paired with the exterior rule's constant limit when it has one,
  otherwise reported as an error estimate proportional to Lam * osc * R^(-2s);
* periodic line: image shells are folded in exactly (explicit images plus an
  integral remainder), so 1-d periodic evaluations carry no truncation error
  beyond the origin cell's own images, which stop at _N_IMAGES periods;
* 2-d torus: the free-space box out to the truncation radius (by default 4R,
  two periods) is folded onto the torus and the mass beyond it is spread as
  a uniform mean field, which is not exact.

Every weight is nonnegative and attached symmetrically to +/- offsets, so the
bilinear form built on the same weights is positive semidefinite, and the
pointwise algebraic identity linking L(v^2), v Lv and the bilinear form holds
by construction up to rounding (both operators consume the same weights).
The real-space weights are independent of the Fourier-multiplier path in
operators.spectral_apply, which serves as the cross-validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fields import GridSpec
from .kernels import KernelSpec

__all__ = ["QuadratureScheme", "scheme_for"]

_THETA_NODES = 8192      # angular resolution of 2-d polar integrals
_N_IMAGES = 64           # explicit periodization images before the integral remainder
_PSI_SUBDIV = 48         # subcells per ray interval on which a custom psi is sampled


# -- ray integrals -----------------------------------------------------------


def _ray_psi(kernel: KernelSpec, e):
    """psi = K(e) along the unit directions e (scalars +/-1 in 1-d, rows in
    2-d) when it is constant on each ray, as for the power-law kinds; None
    for custom (radial) profiles, whose psi _ray samples.  Builders evaluate
    it once and hand it to every _ray and _ray_tail along the same e."""
    return kernel(e) if kernel.is_power_law() else None


def _profile_psi(kernel: KernelSpec, r):
    """psi(r) = profile(r) * r^(n+2s) of a custom radial kernel."""
    return np.asarray(kernel.profile(r), dtype=float) * r ** kernel.singularity_order


def _ray(kernel: KernelSpec, psi, a, b, extra_power):
    """integral of r^extra_power * K(r e) over [a, b] along each direction e
    whose psi is psi (see _ray_psi; None samples a custom profile's psi at
    the midpoints of _PSI_SUBDIV subcells); a, b and psi broadcast.  The
    singular power is integrated in closed form against psi."""
    # exponent of the primitive, summed in this order so that the power-law
    # exponents (-2s, 2 - 2s) come out bit for bit
    q = (extra_power + 1.0 - kernel.dim) - 2.0 * kernel.s
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if psi is None:
        edges = a[..., None] + (b - a)[..., None] * np.linspace(0.0, 1.0, _PSI_SUBDIV + 1)
        lo, hi = edges[..., :-1], edges[..., 1:]
        return np.sum(_ray(kernel, _profile_psi(kernel, 0.5 * (lo + hi)),
                           lo, hi, extra_power), axis=-1)
    if abs(q) < 1e-12:
        return psi * (np.log(b) - np.log(a))
    return psi * (b**q - a**q) / q


def _ray_tail(kernel: KernelSpec, psi, r0, extra_power):
    """integral of r^extra_power * K(r e) over [r0, infinity), psi as in
    _ray; a frozen psi makes it exact.  A custom psi is sampled out to
    1e6 * r0 and frozen at its last sample beyond; admissible profiles make
    that a bounded-relative-error remainder of a vanishing quantity."""
    q = (extra_power + 1.0 - kernel.dim) - 2.0 * kernel.s
    if psi is None:
        edges = np.asarray(r0, dtype=float)[..., None] * np.logspace(0.0, 6.0, 481)
        rf = edges[..., -1]
        return (np.sum(_ray(kernel, None, edges[..., :-1], edges[..., 1:], extra_power),
                       axis=-1)
                + _ray_tail(kernel, _profile_psi(kernel, rf), rf, extra_power))
    return psi * np.asarray(r0, dtype=float) ** q / -q


# -- scheme objects ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Precomputed weights binding one kernel to one grid.

    Operators only rely on the public attributes:

    kernel, grid      the bound pair;
    near_radius       half-width of the moment-matched inner region;
    weights           the node weights as one offset array: shape (2M+1,)*dim
                      with the zero offset at the centre in free space,
                      (N,)*dim indexed by torus shift (0 = zero offset) on
                      periodic grids, where the images are folded in;
    tail_directions   one unit vector per tail_mass the exterior rule's far
                      limit is read along: both rays in 1-d, one in 2-d (the
                      limit is direction independent), none on the torus;
    tail_mass         kernel mass beyond the truncation cutoff along one ray
                      (1-d) / outside the truncation square (2-d); zero for
                      periodic schemes (images folded in);
    tail_upper        same for the Lam-comparison kernel, used for error
                      estimates when the exterior rule has no constant limit;
    dropped_cross_moment
                      magnitude of a mixed inner moment left out to keep all
                      weights nonnegative (rotated anisotropic kernels only).
    """

    kernel: KernelSpec
    grid: GridSpec
    near_radius: float
    weights: np.ndarray
    tail_directions: tuple = ()
    tail_mass: float = 0.0
    tail_upper: float = 0.0
    dropped_cross_moment: float = 0.0

    def diagonal(self) -> float:
        """Sum of all node weights plus the tail mass along each direction:
        the operator's diagonal, the stability constant of explicit flows."""
        return float(np.sum(self.weights)) + len(self.tail_directions) * self.tail_mass

    def innermost_moment_ratio(self) -> float:
        """Innermost weight against an independent quadrature of its defining
        moment integral; consistency demands a ratio near 1."""
        h = self.grid.h
        s = self.kernel.s
        c = 0 if self.grid.periodic else self.weights.shape[0] // 2
        # the weight at one step along the first axis
        w1 = float(self.weights[(c + 1,) + (c,) * (self.grid.dim - 1)])
        if self.grid.dim == 1:
            # independent path: factored-singularity midpoint on a fine grid
            edges = np.linspace(0.0, 1.5 * h, 2001)
            mid = 0.5 * (edges[:-1] + edges[1:])
            psi = self.kernel(mid) * mid ** (1.0 + 2.0 * s)
            seg = (edges[1:] ** (2.0 - 2.0 * s) - edges[:-1] ** (2.0 - 2.0 * s)) / (2.0 - 2.0 * s)
            ref = float(np.sum(psi * seg)) / h**2
            return w1 / ref
        # independent angular rule: Gauss-Legendre per octant, radial by _ray
        gx, gw = np.polynomial.legendre.leggauss(48)
        t11 = 0.0
        for oct_lo in np.arange(8) * (np.pi / 4.0):
            th = oct_lo + (gx + 1.0) * (np.pi / 8.0)
            wq = gw * (np.pi / 8.0)
            rmax = self.near_radius / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
            e = np.stack([np.cos(th), np.sin(th)], axis=-1)
            base = _ray(self.kernel, _ray_psi(self.kernel, e), 0.0, rmax, 3)
            t11 += float(np.sum(wq * base * np.cos(th) ** 2))
        return w1 / (t11 / (2.0 * h * h))


def _near_shell_count(grid: GridSpec) -> int:
    """Shells integrated against moments: a quarter of the interior radius in
    free space, an eighth of the period on the torus, between 1 and 6."""
    if grid.periodic:
        q = int(round(grid.period / grid.h)) // 8
    else:
        q = int(np.floor(0.25 * grid.radius / grid.h - 0.5))
    return max(1, min(6, q))


# -- 1-d construction --------------------------------------------------------


def _line_base_weights(kernel: KernelSpec, h: float, J: int, q: int) -> np.ndarray:
    psi = _ray_psi(kernel, 1.0)
    j = np.arange(1, J + 1)
    a = (j - 0.5) * h
    b = (j + 0.5) * h
    w = np.empty(J)
    far = j > q
    if np.any(far):
        w[far] = _ray(kernel, psi, a[far], b[far], 0)
    near = ~far
    if np.any(near):
        w[near] = _ray(kernel, psi, a[near], b[near], 2) / (j[near] * h) ** 2
    # the innermost weight integrates the moment from the origin itself
    w[0] = float(_ray(kernel, psi, 0.0, b[:1], 2)[0]) / h**2
    return w


def _build_line_scheme(kernel, grid):
    h = grid.h
    q = _near_shell_count(grid)
    J = max(q + 2, int(round(grid.truncation_radius / h)))
    w = _line_base_weights(kernel, h, J, q)
    T = (J + 0.5) * h
    lam_up = (1.0 - kernel.s) * kernel.Lam
    return QuadratureScheme(
        kernel, grid, near_radius=(q + 0.5) * h,
        weights=_centred(w),
        tail_directions=(np.array([1.0]), np.array([-1.0])),
        tail_mass=float(_ray_tail(kernel, _ray_psi(kernel, 1.0), T, 0)),
        tail_upper=lam_up * T ** (-2.0 * kernel.s) / (2.0 * kernel.s),
    )


def _build_periodic_line_scheme(kernel, grid):
    h, P = grid.h, grid.period
    N = int(round(P / h))
    J = N // 2
    q = _near_shell_count(grid)
    psi = _ray_psi(kernel, 1.0)
    w = _line_base_weights(kernel, h, J, q)
    j = np.arange(1, J + 1)
    y = j * h
    self_mirror = (N % 2 == 0)
    for fam in (+1.0, -1.0):
        keep = np.ones(J, dtype=bool)
        if fam < 0 and self_mirror:
            keep[J - 1] = False  # the half-period shell is its own mirror
        yk = y[keep]
        for k in range(1, _N_IMAGES + 1):
            mu = k * P + fam * yk
            w[keep] += _ray(kernel, psi, mu - 0.5 * h, mu + 0.5 * h, 0)
        # images beyond: 1/P times the integral over mu >= mu_inf of the cell
        # mass, i.e. of the tail mass r K(r) / (2s) (psi frozen) over one cell
        mu_inf = (_N_IMAGES + 0.5) * P + fam * yk
        cell = _ray(kernel, psi, mu_inf - 0.5 * h, mu_inf + 0.5 * h, 1)
        w[keep] += cell / (2.0 * kernel.s * P)
    # images of the origin cell at k*P: quadratic model onto the first node
    kk = np.arange(1, _N_IMAGES + 1) * P
    w[0] += float(np.sum(kernel(kk) * h**3 / 12.0)) / h**2
    return QuadratureScheme(kernel, grid, near_radius=(q + 0.5) * h,
                            weights=_torus_fold(_centred(w), N))


def _centred(w: np.ndarray) -> np.ndarray:
    """Pair weights at offsets 1..J as the centred offset array [-J..J]."""
    return np.concatenate([w[::-1], [0.0], w])


def _torus_fold(W: np.ndarray, N: int) -> np.ndarray:
    """A centred offset array of any dimension folded onto the torus shifts
    0..N-1 per axis; on even N the half-period shift collects both members
    of its pair."""
    M = W.shape[0] // 2
    idx = np.mod(np.arange(-M, M + 1), N)
    out = np.zeros((N,) * W.ndim)
    np.add.at(out, np.ix_(*(idx,) * W.ndim), W)
    return out


# -- 2-d construction --------------------------------------------------------


def _polar_rays(kernel, rbox):
    """_THETA_NODES equispaced angles, the distance rbox / max(|cos|, |sin|)
    to the square |y|_inf = rbox along each, and psi along each."""
    th = np.linspace(0.0, 2.0 * np.pi, _THETA_NODES, endpoint=False)
    r = rbox / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    return th, r, _ray_psi(kernel, np.stack([np.cos(th), np.sin(th)], axis=-1))


def _box_moments(kernel, rbox):
    """T_ab = integral of y_a y_b K(y) over the square |y|_inf <= rbox."""
    th, rmax, psi = _polar_rays(kernel, rbox)
    base = _ray(kernel, psi, 0.0, rmax, 3)
    t11 = float(np.mean(base * np.cos(th) ** 2) * 2.0 * np.pi)
    t22 = float(np.mean(base * np.sin(th) ** 2) * 2.0 * np.pi)
    t12 = float(np.mean(base * np.sin(th) * np.cos(th)) * 2.0 * np.pi)
    return t11, t22, t12


def _square_tail_mass(kernel, R):
    """Kernel mass outside the square |y|_inf > R."""
    _, rmin, psi = _polar_rays(kernel, R)
    if psi is not None:
        return float(np.mean(_ray_tail(kernel, psi, rmin, 1)) * 2.0 * np.pi)
    # a sampled tail costs 480 * _PSI_SUBDIV profile values: 512 directions
    vals = [_ray_tail(kernel, None, r, 1) for r in rmin[:: _THETA_NODES // 512]]
    return float(np.mean(vals) * 2.0 * np.pi)


def _plane_cell_weights(kernel, grid, M, q):
    """Offset-indexed cell weights on [-M..M]^2; the inner box is replaced by
    matrix-moment weights on the first ring of nodes."""
    h = grid.h
    idx = np.arange(-M, M + 1)
    Y1, Y2 = np.meshgrid(idx * h, idx * h, indexing="ij")
    Y = np.stack([Y1, Y2], axis=-1)
    W = np.zeros((idx.size, idx.size))
    sup = np.maximum(np.abs(Y1), np.abs(Y2))
    far = sup > (q + 0.5) * h
    W[far] = kernel(Y[far]) * h * h
    # refine the ring of cells just outside the inner box
    ring = far & (sup <= (q + 3.5) * h + 1e-12)
    gs = 6
    t = (np.arange(gs) + 0.5) / gs - 0.5
    off = h * np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    ri, rj = np.nonzero(ring)
    if ri.size:
        sub = Y[ri, rj][:, None, :] + off[None, :, :]
        W[ri, rj] = np.mean(kernel(sub.reshape(-1, 2)).reshape(ri.size, -1),
                            axis=1) * h * h
    # inner box through matrix moments sampled on the first node ring
    t11, t22, t12 = _box_moments(kernel, (q + 0.5) * h)
    c = M
    W[c + 1, c] += t11 / (2.0 * h * h)
    W[c - 1, c] += t11 / (2.0 * h * h)
    W[c, c + 1] += t22 / (2.0 * h * h)
    W[c, c - 1] += t22 / (2.0 * h * h)
    dropped = 0.0
    if abs(t12) > 1e-14 * (t11 + t22):
        # the mixed moment needs a signed diagonal pair; weights must stay
        # nonnegative for the bilinear form, so drop it when it cannot fit
        quarter = t12 / (4.0 * h * h)
        if abs(quarter) <= min(W[c + 1, c + 1], W[c + 1, c - 1]):
            W[c + 1, c + 1] += quarter
            W[c - 1, c - 1] += quarter
            W[c + 1, c - 1] -= quarter
            W[c - 1, c + 1] -= quarter
        else:
            dropped = abs(t12)
    W[c, c] = 0.0
    # the ring subcells are averaged in a different order at y and -y; the
    # mean of the two makes the weights exactly even, so A = A^T exactly
    return 0.5 * (W + W[::-1, ::-1]), dropped


def _build_plane_scheme(kernel, grid):
    h = grid.h
    q = _near_shell_count(grid)
    M = max(q + 4, int(round(grid.truncation_radius / h)))
    W, dropped = _plane_cell_weights(kernel, grid, M, q)
    T = (M + 0.5) * h
    lam_up = (1.0 - kernel.s) * kernel.Lam
    return QuadratureScheme(
        kernel, grid, near_radius=(q + 0.5) * h, weights=W,
        tail_directions=(np.array([1.0, 0.0]),),
        tail_mass=_square_tail_mass(kernel, T),
        tail_upper=lam_up * 2.0 * np.pi * T ** (-2.0 * kernel.s) / (2.0 * kernel.s),
        dropped_cross_moment=dropped,
    )


def _build_periodic_plane_scheme(kernel, grid):
    plane = _build_plane_scheme(kernel, grid)
    N = grid.shape[0]
    W = _torus_fold(plane.weights, N)
    # spread the mass beyond the truncation square as a mean-field term
    W += plane.tail_mass / N**2
    W[0, 0] = 0.0
    return QuadratureScheme(kernel, grid, near_radius=plane.near_radius,
                            weights=W, dropped_cross_moment=plane.dropped_cross_moment)


@lru_cache(maxsize=16)
def scheme_for(kernel: KernelSpec, grid: GridSpec) -> QuadratureScheme:
    """Build (and cache) the quadrature scheme binding kernel to grid."""
    if kernel.dim != grid.dim:
        raise DomainError("kernel and grid dimension mismatch")
    if grid.dim == 1:
        if grid.periodic:
            return _build_periodic_line_scheme(kernel, grid)
        return _build_line_scheme(kernel, grid)
    if grid.dim == 2:
        if grid.periodic:
            return _build_periodic_plane_scheme(kernel, grid)
        return _build_plane_scheme(kernel, grid)
    raise DomainError("quadrature supports dimensions 1 and 2")
