"""Quadrature weights for singular symmetric kernels on uniform grids.

The second-difference form of the operator,

    L u(x) = 1/2 * integral of (u(x+y) + u(x-y) - 2 u(x)) K(y) dy,

is discretized as a weighted sum over grid offsets.  Every admissible kernel
is read along rays as K(r e) = psi(r, e) * r^(-(n+2s)) with psi bounded
between (1-s) lam and (1-s) Lam; the power-law kinds (fractional,
anisotropic) are the ones whose psi is constant along each ray.  One ray
integral, _intervals, integrates the singular power in closed form against
psi (frozen per ray, or sampled per subcell for custom profiles) over
consecutive intervals whose last edge may be infinite, and every shell,
moment and tail integral below goes through it (_ray is its one-interval
form):

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
  beyond the origin cell's own images, which stop at _N_IMAGES periods.  The
  weights are built by torus shift: the offsets y > 0 (the window's pair
  weights, the image cells taken one period of N cells at a time through
  _intervals, and the remainder) are summed by shift mod N, and one mirror
  sum adds those at -y, which makes the weights exactly even;
* 2-d torus: the cell weights above on the principal window |j|_inf <= N//2
  plus the exact lattice images h^2 sum_{n != 0} K(hj + nP), summed by Ewald
  splitting, folded onto the torus; this needs a power-law kernel (a custom
  profile has no closed-form lattice sum and is refused).  |A^-1 y|^2 is
  built once on the window from outer sums of the axis vectors (_window),
  and the kernel there feeds both the far cells and the Ewald sum's n = 0
  term.  The truncation radius plays no part on either torus.

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
from scipy.special import gamma, gammainc, gammaincc

from .errors import DomainError
from .fields import GridSpec
from .kernels import KernelSpec

__all__ = ["QuadratureScheme", "scheme_for"]

_THETA_NODES = 8192      # angular resolution of 2-d polar integrals
_N_IMAGES = 64           # explicit periodization images before the integral remainder
_PSI_SUBDIV = 48         # subcells per ray interval on which a custom psi is sampled
_EWALD_CUT = 50.0        # Gaussian exponent beyond which Ewald terms (< 1e-20) are dropped


# -- ray integrals -----------------------------------------------------------


def _ray_psi(kernel: KernelSpec, e):
    """psi = K(e) along the unit directions e (scalars +/-1 in 1-d, rows in
    2-d) when it is constant on each ray, as for the power-law kinds; None
    for custom (radial) profiles, whose psi _intervals samples.  Builders
    evaluate it once and hand it to every ray integral along the same e."""
    return kernel(e) if kernel.is_power_law() else None


def _profile_psi(kernel: KernelSpec, r):
    """psi(r) = profile(r) * r^(n+2s) of a custom radial kernel."""
    return np.asarray(kernel.profile(r), dtype=float) * r ** kernel.singularity_order


def _intervals(kernel: KernelSpec, psi, edges, extra_power):
    """integral of r^extra_power * K(r e) over the consecutive intervals
    [edges[..., k], edges[..., k+1]] along each direction e whose psi is psi
    (see _ray_psi; it broadcasts against the intervals); the last edge may
    be inf (a tail).  Against a frozen psi the singular power is integrated
    in closed form, one power of each edge differenced.  A custom profile's
    psi (None) is sampled at the midpoints of _PSI_SUBDIV subcells of each
    finite interval, and on a tail [r0, inf) over 480 log-spaced cells out
    to 1e6 * r0, frozen at its last sample beyond; admissible profiles make
    that a bounded-relative-error remainder of a vanishing quantity."""
    edges = np.asarray(edges, dtype=float)
    if psi is None and np.isinf(edges[..., -1]).any():
        cells = edges[..., -2:-1] * np.logspace(0.0, 6.0, 481)
        rf = cells[..., -1:]
        tail = np.sum(_intervals(kernel, None, cells, extra_power), axis=-1, keepdims=True)
        tail += _intervals(kernel, _profile_psi(kernel, rf), rf * [1.0, np.inf], extra_power)
        head = _intervals(kernel, None, edges[..., :-1], extra_power)
        return np.concatenate([head, tail], axis=-1)
    if psi is None:
        t = np.linspace(0.0, 1.0, _PSI_SUBDIV + 1)
        sub = edges[..., :-1, None] + np.diff(edges)[..., None] * t
        mid = 0.5 * (sub[..., :-1] + sub[..., 1:])
        return np.sum(_intervals(kernel, _profile_psi(kernel, mid), sub, extra_power), axis=-1)
    # the primitive r^q / q of r^extra_power * r^-(n+2s), q summed in this
    # order so that the power-law exponents -2s and 2 - 2s come out bit for bit
    q = (extra_power + 1.0 - kernel.dim) - 2.0 * kernel.s
    if abs(q) < 1e-12:
        return psi * np.diff(np.log(edges))
    F = edges**q
    return psi * (F[..., 1:] - F[..., :-1]) / q


def _ray(kernel: KernelSpec, psi, a, b, extra_power):
    """_intervals over the one interval [a, b] (b may be inf); a, b, psi broadcast."""
    psi = psi if psi is None else np.expand_dims(psi, -1)
    edges = np.stack(np.broadcast_arrays(a, b), axis=-1)
    return _intervals(kernel, psi, edges, extra_power)[..., 0]


# -- scheme objects ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Precomputed weights binding one kernel to one grid.

    Operators only rely on the public attributes:

    weights           the node weights as one offset array: shape (2M+1,)*dim
                      with the zero offset at the centre in free space,
                      (N,)*dim indexed by torus shift (0 = zero offset) on
                      periodic grids, where every image is folded in (the
                      line's far images through an integral remainder, the
                      plane's through an exact Ewald lattice sum);
    tail_directions   one unit vector per tail_mass the exterior rule's far
                      limit is read along: both rays in 1-d, one in 2-d (the
                      limit is direction independent), none on the torus;
    tail_mass         kernel mass beyond the truncation cutoff along one ray
                      (1-d) / outside the truncation square (2-d); zero for
                      periodic schemes, which have no cutoff (images folded
                      in);
    tail_upper        same for the Lam-comparison kernel, used for error
                      estimates when the exterior rule has no constant limit;
    dropped_cross_moment
                      magnitude of a mixed inner moment left out to keep all
                      weights nonnegative (rotated anisotropic kernels only).
    """

    weights: np.ndarray
    tail_directions: tuple = ()
    tail_mass: float = 0.0
    tail_upper: float = 0.0
    dropped_cross_moment: float = 0.0

    def diagonal(self) -> float:
        """Sum of all node weights plus the tail mass along each direction:
        the operator's diagonal."""
        return float(np.sum(self.weights)) + len(self.tail_directions) * self.tail_mass


def _near_shell_count(grid: GridSpec) -> int:
    """Shells integrated against moments: one fourth of the interior radius in
    free space, an eighth of the period on the torus, between 1 and 6."""
    if grid.periodic:
        q = int(round(grid.period / grid.h)) // 8
    else:
        q = int(np.floor(0.25 * grid.radius / grid.h - 0.5))
    return max(1, min(6, q))


# -- 1-d construction --------------------------------------------------------


def _line_base_weights(kernel: KernelSpec, h: float, J: int, q: int) -> np.ndarray:
    """Pair weights at offsets 1..J: the cell mass of the shells beyond q,
    moment weights on the q innermost ones, the first of them from the
    origin itself (moment edges 0, e_1, ..., e_q)."""
    psi = _ray_psi(kernel, 1.0)
    edges = (np.arange(J + 1) + 0.5) * h
    w = _intervals(kernel, psi, edges, 0)
    j = np.arange(1, min(q, J) + 1)
    moment_edges = np.concatenate([[0.0], edges[1 : j.size + 1]])
    w[: j.size] = _intervals(kernel, psi, moment_edges, 2) / (j * h) ** 2
    return w


def _build_line_scheme(kernel, grid):
    h = grid.h
    q = _near_shell_count(grid)
    J = max(q + 2, int(round(grid.truncation_radius / h)))
    w = _line_base_weights(kernel, h, J, q)
    T = (J + 0.5) * h
    lam_up = (1.0 - kernel.s) * kernel.Lam
    return QuadratureScheme(
        weights=np.concatenate([w[::-1], [0.0], w]),
        tail_directions=(np.array([1.0]), np.array([-1.0])),
        tail_mass=float(_ray(kernel, _ray_psi(kernel, 1.0), T, np.inf, 0)),
        tail_upper=float(_ray(kernel, lam_up, T, np.inf, 0)),
    )


def _build_periodic_line_scheme(kernel, grid):
    h, P = grid.h, grid.period
    N = int(round(P / h))
    J = N // 2
    q = _near_shell_count(grid)
    psi = _ray_psi(kernel, 1.0)
    # W[r] first collects the offsets y > 0 at torus shift r: the image
    # cells, centred at i h for i = J+1 .. _N_IMAGES N + J, one period (N
    # cells, N + 1 edges) at a time, summed by shift r = i mod N
    W = np.zeros(N)
    edges = np.arange(N + 1) + (J + 0.5)
    for _ in range(_N_IMAGES):
        W += _intervals(kernel, psi, edges * h, 0)
        edges += N
    W = np.roll(W, J + 1)
    W[1 : J + 1] += _line_base_weights(kernel, h, J, q)
    # images beyond: 1/P times the integral over mu >= mu_inf of the cell
    # mass, i.e. of the tail mass r K(r) / (2s) (psi frozen) over one cell,
    # at each shift's signed offset (r up to J, r - N above)
    d = np.arange(N)
    d[J + 1 :] -= N
    mu_inf = (_N_IMAGES + 0.5) * P + d * h
    W += _ray(kernel, psi, mu_inf - 0.5 * h, mu_inf + 0.5 * h, 1) / (2.0 * kernel.s * P)
    # images of the origin cell at k*P: quadratic model onto shift 1; the
    # origin cell itself, shift 0, carries none
    kk = np.arange(1, _N_IMAGES + 1) * P
    W[1] += float(np.sum(kernel(kk) * h**3 / 12.0)) / h**2
    W[0] = 0.0
    # the mirror W[-r mod N] adds the offsets y < 0: an even N's half-period
    # shift gets both members of its pair, and the weights are exactly even
    return QuadratureScheme(weights=W + np.roll(W[::-1], 1))


def _torus_fold(W: np.ndarray, N: int) -> np.ndarray:
    """A centred offset array of any dimension folded onto the torus shifts
    0..N-1 per axis, one axis at a time by slice adds of N-long blocks; on
    even N the half-period shift collects both members of its pair."""
    M = W.shape[0] // 2
    for axis in range(W.ndim):
        lead = (slice(None),) * axis
        out = np.zeros(W.shape[:axis] + (N,) + W.shape[axis + 1 :])
        for lo in range(0, W.shape[axis], N):
            n = min(N, W.shape[axis] - lo)
            r = (lo - M) % N  # the shift of the block's first offset
            k = min(N - r, n)
            out[lead + (slice(r, r + k),)] += W[lead + (slice(lo, lo + k),)]
            out[lead + (slice(0, n - k),)] += W[lead + (slice(lo + k, lo + n),)]
        W = out
    return W


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
        return float(np.mean(_ray(kernel, psi, rmin, np.inf, 1)) * 2.0 * np.pi)
    # a sampled tail costs 480 * _PSI_SUBDIV profile values: 512 directions
    vals = [_ray(kernel, None, r, np.inf, 1) for r in rmin[:: _THETA_NODES // 512]]
    return float(np.mean(vals) * 2.0 * np.pi)


def _window(kernel, h, M):
    """z = A^-1 y at the offsets y = h j, |j|_inf <= M (A = I without a
    matrix), as its two components, each an outer sum of the axis vectors
    h j A^-1 e_1 and h j A^-1 e_2, and |z|^2, set to 1 at the zero offset,
    which carries no weight."""
    t = h * np.arange(-M, M + 1)
    Ainv = np.eye(2) if kernel.A is None else np.linalg.inv(kernel.A)
    z = tuple(np.add.outer(t * Ainv[a, 0], t * Ainv[a, 1]) for a in (0, 1))
    r2 = z[0] * z[0] + z[1] * z[1]
    r2[M, M] = 1.0
    return z, r2


def _plane_cell_weights(kernel, grid, M, q, K=None):
    """Offset-indexed cell weights on [-M..M]^2; the inner box is replaced by
    matrix-moment weights on the first ring of nodes.  K is the kernel on
    that window (kernel.at_norm2 of _window's |z|^2 when not given)."""
    h = grid.h
    if K is None:
        K = kernel.at_norm2(_window(kernel, h, M)[1])
    j = np.abs(np.arange(-M, M + 1))
    sup = np.maximum.outer(j, j)
    far = sup > q
    W = np.where(far, K * h * h, 0.0)
    # refine the ring of cells just outside the inner box
    ring = far & (sup <= q + 3)
    gs = 6
    t = (np.arange(gs) + 0.5) / gs - 0.5
    off = h * np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    ri, rj = np.nonzero(ring)
    if ri.size:
        sub = (np.stack([ri - M, rj - M], axis=-1) * h)[:, None, :] + off[None, :, :]
        W[ri, rj] = np.mean(kernel(sub.reshape(-1, 2)).reshape(ri.size, -1),
                            axis=1) * h * h
    # inner box through matrix moments sampled on the first node ring
    t11, t22, t12 = _box_moments(kernel, (q + 0.5) * h)
    c = M
    W[c + 1, c] += t11 / (2.0 * h * h)
    W[c - 1, c] += t11 / (2.0 * h * h)
    W[c, c + 1] += t22 / (2.0 * h * h)
    W[c, c - 1] += t22 / (2.0 * h * h)
    # the mixed moment would need a signed diagonal pair, but q >= 1 puts the
    # diagonal neighbours inside the inner box, where the weight is 0: one of
    # the pair would be negative, so a nonzero t12 is always dropped
    dropped = abs(t12) if abs(t12) > 1e-14 * (t11 + t22) else 0.0
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
        weights=W,
        tail_directions=(np.array([1.0, 0.0]),),
        tail_mass=_square_tail_mass(kernel, T),
        # the comparison kernel's mass outside the disc |y| > T, within the square
        tail_upper=float(_ray(kernel, lam_up * 2.0 * np.pi, T, np.inf, 1)),
        dropped_cross_moment=dropped,
    )


def _lattice_images(kernel, grid, z, r2, K, alpha=None):
    """h^2 * sum over n != 0 of K(h j + n P) at the centred offsets
    |j|_inf <= N//2 of a power-law kernel K(y) = kappa |z|^(-2 nu), z = A^-1 y,
    nu = 1 + s, by Ewald splitting on the lattice L = P A^-1 in z: the terms
    K(h j + n P) Q(nu, alpha |z + L n|^2) in real space, the rest through
    Poisson summation as one inverse FFT over the reciprocal modes m,
    with coefficients a^s Gamma(-s, a / alpha), a = pi^2 |A^T m|^2 / P^2.
    Terms whose Gaussian exponent reaches _EWALD_CUT are below 1e-20 and
    dropped.  z, r2 = |z|^2 and K are _window's and the kernel there.  The
    result does not depend on the splitting width alpha."""
    h, P, s = grid.h, grid.period, kernel.s
    N = grid.shape[0]
    nu = 1.0 + s
    A = kernel.A if kernel.A is not None else np.eye(2)
    Ainv = np.linalg.inv(A)
    det = abs(np.linalg.det(A))
    sv = np.linalg.svd(A, compute_uv=False)
    sig = P / sv[0]  # shortest distance scale of L: |L n| >= sig |n|
    if alpha is None:
        # real-space terms reach sig/3, short of every image (|z + L n| >=
        # sig/2 for n != 0 on the window), so only n = 0 is evaluated
        alpha = _EWALD_CUT * (3.0 / sig) ** 2
    rc2 = _EWALD_CUT / alpha
    # real space; the n = 0 term enters as K (Q - 1).  r2 and K are exactly
    # even, so the rows j_1 <= 0 are evaluated and mirrored onto j_1 > 0
    M = N // 2
    out = -K
    top = out[: M + 1]
    near = r2[: M + 1] < rc2
    top[near] *= gammainc(nu, alpha * r2[: M + 1][near])
    out[M + 1 :] = out[M - 1 :: -1, ::-1]
    # images with (|n|_inf - 1/2) sig < rc reach the window
    reach = int(np.sqrt(rc2) / sig + 0.5)
    for n in np.ndindex(2 * reach + 1, 2 * reach + 1):
        n = np.array(n) - reach
        if not n.any():
            continue
        shift = Ainv @ (P * n)
        rn2 = (z[0] + shift[0]) ** 2 + (z[1] + shift[1]) ** 2
        near = rn2 < rc2
        out[near] += kernel.at_norm2(rn2[near]) * gammaincc(nu, alpha * rn2[near])
    # reciprocal space on the modes m_2 >= 0, with a from outer sums of the
    # axis vectors m A^T e_b; the coefficients are even in m, which gives
    # the modes m_2 < 0
    mmax = int(np.ceil(np.sqrt(_EWALD_CUT * alpha) * P / (np.pi * sv[-1])))
    m = np.arange(-mmax, mmax + 1)
    g = [np.add.outer(m * A[0, b], m[mmax:] * A[1, b]) for b in (0, 1)]
    a = (np.pi / P) ** 2 * (g[0] * g[0] + g[1] * g[1])
    keep = (a > 0.0) & (a < _EWALD_CUT * alpha)
    a, x = a[keep], a[keep] / alpha
    # Gamma(-s, x) = (Gamma(1-s, x) - x^-s e^-x) / (-s)
    coef = np.zeros(keep.shape)
    coef[keep] = a**s * (gamma(1.0 - s) * gammaincc(1.0 - s, x) - x**-s * np.exp(-x)) / -s
    C = _torus_fold(np.concatenate([coef[::-1, :0:-1], coef], axis=1), N)
    C[0, 0] += alpha**s / s
    # C is real and even, so its inverse transform is that of its half spectrum
    kappa = kernel.at_norm2(1.0)
    R = np.fft.irfft2(C[:, : N // 2 + 1], s=(N, N)) * (
        N * N * np.pi * det * kappa / (P * P * gamma(nu)))
    idx = np.arange(-(N // 2), N // 2 + 1) % N
    out += R[np.ix_(idx, idx)]
    out *= h * h
    # rounding differs at j and -j; the mean makes the images exactly even
    return 0.5 * (out + out[::-1, ::-1])


def _build_periodic_plane_scheme(kernel, grid, alpha=None):
    if not kernel.is_power_law():
        raise DomainError("the 2-d torus needs a power-law kernel: a custom "
                          "profile has no closed-form lattice sum")
    N = grid.shape[0]
    q = _near_shell_count(grid)
    # one window of |A^-1 y|^2 and K serves the cells and the Ewald sum
    z, r2 = _window(kernel, grid.h, N // 2)
    K = kernel.at_norm2(r2)
    W, dropped = _plane_cell_weights(kernel, grid, N // 2, q, K)
    W += _lattice_images(kernel, grid, z, r2, K, alpha)
    if N % 2 == 0:
        # the window's edge rows and columns are images of each other
        W[[0, -1], :] *= 0.5
        W[:, [0, -1]] *= 0.5
    W = _torus_fold(W, N)
    W[0, 0] = 0.0
    return QuadratureScheme(weights=W, dropped_cross_moment=dropped)


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
