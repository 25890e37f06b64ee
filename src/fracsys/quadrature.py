"""Quadrature weights for singular symmetric kernels on uniform grids.

The second-difference form of the operator,

    L u(x) = 1/2 * integral of (u(x+y) + u(x-y) - 2 u(x)) K(y) dy,

is discretized as a weighted sum over grid offsets.  Weights carry the exact
kernel mass of the cell (or radial shell) they represent, which tames the
|y|^(-(n+2s)) singularity uniformly in s:

* far field: exact shell mass (1-d) or cell mass (2-d) at the offset node;
* near field: the second difference of a C^{1,1} function vanishes
  quadratically at the origin, so the innermost region is integrated against
  moment weights, w_j = y_j^(-2) * integral of y^2 K(y) over the shell in
  1-d, or the matrix moments T_ab = integral of y_a y_b K(y) over an inner
  box in 2-d, sampled through discrete second differences on the first ring
  of nodes;
* tail: beyond the truncation radius the kernel mass is integrated in closed
  form and paired with the exterior rule's constant limit when it has one,
  otherwise reported as an error estimate proportional to Lam * osc * R^(-2s);
* periodic grids: image shells are folded in exactly (explicit images plus an
  integral remainder), so periodic evaluations carry no truncation error.

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
_PSI_SUBDIV = 48         # radial subdivisions for custom-profile shell masses


# -- radial primitives -------------------------------------------------------


def _custom_ray(profile, s, n, a, b, extra_power):
    """integral of r^extra_power * profile(r) over [a, b], vectorized over
    (a, b) arrays.  The power-law singularity r^(-(n+2s)) is factored out and
    integrated in closed form per subcell; the bounded remainder
    psi(r) = profile(r) * r^(n+2s) is sampled at subcell midpoints."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    p = extra_power - (n + 2.0 * s)
    t = np.linspace(0.0, 1.0, _PSI_SUBDIV + 1)
    lo = a[:, None] + (b - a)[:, None] * t[None, :-1]
    hi = a[:, None] + (b - a)[:, None] * t[None, 1:]
    mid = 0.5 * (lo + hi)
    psi = np.asarray(profile(mid), dtype=float) * mid ** (n + 2.0 * s)
    if abs(p + 1.0) < 1e-12:
        seg = np.log(hi) - np.log(np.maximum(lo, 1e-300))
    else:
        seg = (hi ** (p + 1.0) - np.maximum(lo, 0.0) ** (p + 1.0)) / (p + 1.0)
    return np.sum(psi * seg, axis=1)


def _custom_ray_tail(profile, s, n, r0, extra_power):
    """integral of r^extra_power * profile(r) over [r0, infinity)."""
    r0 = float(r0)
    edges = r0 * np.logspace(0.0, 6.0, 481)
    main = float(np.sum(_custom_ray(profile, s, n, edges[:-1], edges[1:], extra_power)))
    # beyond 1e6 * r0 freeze psi at its last sample; admissible profiles make
    # this a bounded-relative-error remainder of a vanishing quantity
    rf = edges[-1]
    psi = float(np.asarray(profile(np.array([rf])))[0]) * rf ** (n + 2.0 * s)
    p = extra_power - (n + 2.0 * s)
    return main + psi * rf ** (p + 1.0) / (-(p + 1.0))


class _Radial1D:
    """Closed-form (power-law) or semianalytic (custom) integrals of K along
    a ray in one dimension: shell mass, second moment, tail and its
    primitive."""

    def __init__(self, kernel: KernelSpec):
        self.s = kernel.s
        self.power_law = kernel.is_power_law()
        if self.power_law:
            self.coef = float(kernel(1.0 if kernel.dim == 1
                                     else np.eye(kernel.dim)[0]))
        else:
            self.profile = kernel.profile

    def mass(self, a, b):
        if self.power_law:
            s = self.s
            return self.coef * (np.asarray(a) ** (-2 * s) - np.asarray(b) ** (-2 * s)) / (2 * s)
        return _custom_ray(self.profile, self.s, 1, a, b, 0.0)

    def moment2(self, a, b):
        if self.power_law:
            s = self.s
            return self.coef * (np.asarray(b) ** (2 - 2 * s)
                                - np.asarray(a) ** (2 - 2 * s)) / (2 - 2 * s)
        return _custom_ray(self.profile, self.s, 1, a, b, 2.0)

    def tail(self, r):
        if self.power_law:
            return self.coef * np.asarray(r) ** (-2 * self.s) / (2 * self.s)
        return _custom_ray_tail(self.profile, self.s, 1, r, 0.0)

    def tail_primitive(self, r):
        """Primitive of tail(r); used by the periodization remainder."""
        if not self.power_law:
            return None
        s, coef = self.s, self.coef
        r = np.asarray(r, dtype=float)
        if abs(s - 0.5) < 1e-13:
            return coef * np.log(r) / (2 * s)
        return coef * r ** (1 - 2 * s) / (2 * s * (1 - 2 * s))


# -- scheme objects ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Precomputed weights binding one kernel to one grid.

    Operators only rely on the public attributes:

    kernel, grid      the bound pair;
    near_radius       half-width of the moment-matched inner region;
    line_weights      (J,) one-sided shell weights at offsets h..Jh
                      (1-d schemes; for periodic grids these are the
                      periodized pair weights);
    torus_weights     offset-indexed node weights on the torus, shape (N,)
                      or (N, N) (periodic grids, index 0 = zero offset);
    plane_weights     offset-indexed node weights, shape (2M+1, 2M+1) with
                      the origin at the center (2-d free space);
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
    line_weights: np.ndarray = None
    torus_weights: np.ndarray = None
    plane_weights: np.ndarray = None
    tail_mass: float = 0.0
    tail_upper: float = 0.0
    dropped_cross_moment: float = 0.0

    @property
    def singularity_order(self) -> float:
        return self.kernel.singularity_order

    @property
    def total_interior_mass(self) -> float:
        """Sum of all node weights; together with the tail this is the
        operator's diagonal, the stability constant of explicit flows."""
        if self.grid.dim == 1 and not self.grid.periodic:
            return 2.0 * float(np.sum(self.line_weights))
        if self.torus_weights is not None:
            return float(np.sum(self.torus_weights))
        return float(np.sum(self.plane_weights))

    def diagonal(self) -> float:
        return self.total_interior_mass + (
            2.0 * self.tail_mass if self.grid.dim == 1 else self.tail_mass)

    def innermost_moment_ratio(self) -> float:
        """Innermost weight against an independent quadrature of its defining
        moment integral; consistency demands a ratio near 1."""
        h = self.grid.h
        s = self.kernel.s
        if self.grid.dim == 1:
            w1 = float(self.line_weights[0])
            # independent path: factored-singularity midpoint on a fine grid
            edges = np.linspace(0.0, 1.5 * h, 2001)
            mid = 0.5 * (edges[:-1] + edges[1:])
            psi = self.kernel(mid) * mid ** (1.0 + 2.0 * s)
            seg = (edges[1:] ** (2.0 - 2.0 * s) - edges[:-1] ** (2.0 - 2.0 * s)) / (2.0 - 2.0 * s)
            ref = float(np.sum(psi * seg)) / h**2
            return w1 / ref
        if self.plane_weights is not None:
            c = self.plane_weights.shape[0] // 2
            w_axis = float(self.plane_weights[c + 1, c])
        else:
            w_axis = float(self.torus_weights[1, 0])
        # independent angular rule: Gauss-Legendre per octant, radial closed form
        gx, gw = np.polynomial.legendre.leggauss(48)
        t11 = 0.0
        for oct_lo in np.arange(8) * (np.pi / 4.0):
            th = oct_lo + (gx + 1.0) * (np.pi / 8.0)
            wq = gw * (np.pi / 8.0)
            rmax = self.near_radius / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
            if self.kernel.is_power_law():
                rad = rmax ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
                base = self.kernel.angular_profile(th) * rad
            else:
                base = _custom_ray(self.kernel.profile, s, 2,
                                   np.zeros_like(rmax), rmax, 3.0)
            t11 += float(np.sum(wq * base * np.cos(th) ** 2))
        return w_axis / (t11 / (2.0 * h * h))


def _near_shell_count(grid: GridSpec) -> int:
    q = int(np.floor(0.25 * grid.radius / grid.h - 0.5))
    return max(1, min(6, q))


# -- 1-d construction --------------------------------------------------------


def _line_base_weights(radial: _Radial1D, h: float, J: int, q: int) -> np.ndarray:
    j = np.arange(1, J + 1)
    a = (j - 0.5) * h
    b = (j + 0.5) * h
    w = np.empty(J)
    far = j > q
    if np.any(far):
        w[far] = radial.mass(a[far], b[far])
    near = ~far
    if np.any(near):
        w[near] = radial.moment2(a[near], b[near]) / (j[near] * h) ** 2
    # the innermost weight integrates the moment from the origin itself
    w[0] = float(np.asarray(radial.moment2(np.array([0.0]), b[:1])).ravel()[0]) / h**2
    return w


def _build_line_scheme(kernel, grid):
    h = grid.h
    radial = _Radial1D(kernel)
    q = _near_shell_count(grid)
    J = max(q + 2, int(round(grid.truncation_radius / h)))
    w = _line_base_weights(radial, h, J, q)
    T = (J + 0.5) * h
    lam_up = (1.0 - kernel.s) * kernel.Lam
    return QuadratureScheme(
        kernel, grid, near_radius=(q + 0.5) * h, line_weights=w,
        tail_mass=float(radial.tail(T)),
        tail_upper=lam_up * T ** (-2.0 * kernel.s) / (2.0 * kernel.s),
    )


def _periodic_line_window(kernel, grid):
    """Principal-window pair weights of the periodic line scheme at offsets
    1..J (J = N // 2), before the images are folded in, and the near-shell
    count q they use."""
    J = int(round(grid.period / grid.h)) // 2
    q = max(1, min(6, J // 4))
    return _line_base_weights(_Radial1D(kernel), grid.h, J, q), q


def _build_periodic_line_scheme(kernel, grid):
    h, P = grid.h, grid.period
    N = int(round(P / h))
    w, q = _periodic_line_window(kernel, grid)
    J = w.size
    radial = _Radial1D(kernel)
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
            w[keep] += radial.mass(mu - 0.5 * h, mu + 0.5 * h)
        mu_inf = (_N_IMAGES + 0.5) * P + fam * yk
        prim_hi = radial.tail_primitive(mu_inf + 0.5 * h)
        if prim_hi is not None:
            w[keep] += (prim_hi - radial.tail_primitive(mu_inf - 0.5 * h)) / P
        else:
            # custom profile: one-term remainder of the image series
            psi = np.asarray(kernel(mu_inf), dtype=float) * mu_inf ** (1 + 2 * kernel.s)
            w[keep] += (h / P) * psi * mu_inf ** (-2 * kernel.s) / (2 * kernel.s)
    # images of the origin cell at k*P: quadratic model onto the first node
    kk = np.arange(1, _N_IMAGES + 1) * P
    w[0] += float(np.sum(kernel(kk) * h**3 / 12.0)) / h**2
    return QuadratureScheme(kernel, grid, near_radius=(q + 0.5) * h,
                            line_weights=w, torus_weights=_torus_fold(w, N))


def _torus_fold(w: np.ndarray, N: int) -> np.ndarray:
    """Pair weights at offsets +/-1..+/-J (J = N // 2) as node weights on the
    torus shifts 0..N-1; on even N the half-period shift collects both."""
    J = w.size
    W = np.zeros(N)
    W[1 : J + 1] = w
    W[N - J :] += w[::-1]
    return W


# -- 2-d construction --------------------------------------------------------


def _box_moments(kernel, rbox):
    """T_ab = integral of y_a y_b K(y) over the square |y|_inf <= rbox."""
    th = np.linspace(0.0, 2.0 * np.pi, _THETA_NODES, endpoint=False)
    rmax = rbox / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    s = kernel.s
    if kernel.is_power_law():
        base = kernel.angular_profile(th) * rmax ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    else:
        base = _custom_ray(kernel.profile, s, 2, np.zeros_like(rmax), rmax, 3.0)
    t11 = float(np.mean(base * np.cos(th) ** 2) * 2.0 * np.pi)
    t22 = float(np.mean(base * np.sin(th) ** 2) * 2.0 * np.pi)
    t12 = float(np.mean(base * np.sin(th) * np.cos(th)) * 2.0 * np.pi)
    return t11, t22, t12


def _square_tail_mass(kernel, R):
    """Kernel mass outside the square |y|_inf > R."""
    th = np.linspace(0.0, 2.0 * np.pi, _THETA_NODES, endpoint=False)
    rmin = R / np.maximum(np.abs(np.cos(th)), np.abs(np.sin(th)))
    s = kernel.s
    if kernel.is_power_law():
        return float(np.mean(kernel.angular_profile(th)
                             * rmin ** (-2.0 * s) / (2.0 * s)) * 2.0 * np.pi)
    sub = _THETA_NODES // 512
    vals = [_custom_ray_tail(kernel.profile, s, 2, r, 1.0) for r in rmin[::sub]]
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
    return W, dropped


def _build_plane_scheme(kernel, grid):
    h = grid.h
    q = _near_shell_count(grid)
    M = max(q + 4, int(round(grid.truncation_radius / h)))
    W, dropped = _plane_cell_weights(kernel, grid, M, q)
    T = (M + 0.5) * h
    lam_up = (1.0 - kernel.s) * kernel.Lam
    return QuadratureScheme(
        kernel, grid, near_radius=(q + 0.5) * h, plane_weights=W,
        tail_mass=_square_tail_mass(kernel, T),
        tail_upper=lam_up * 2.0 * np.pi * T ** (-2.0 * kernel.s) / (2.0 * kernel.s),
        dropped_cross_moment=dropped,
    )


def _build_periodic_plane_scheme(kernel, grid):
    h, P = grid.h, grid.period
    N = int(round(P / h))
    q = max(1, min(6, N // 8))
    M = max(q + 4, int(round(grid.truncation_radius / h)))
    W_big, dropped = _plane_cell_weights(kernel, grid, M, q)
    idx = np.mod(np.arange(-M, M + 1), N)
    W = np.zeros((N, N))
    np.add.at(W, (idx[:, None], idx[None, :]), W_big)
    # spread the mass beyond the truncation square as a mean-field term
    T = (M + 0.5) * h
    W += _square_tail_mass(kernel, T) / N**2
    W[0, 0] = 0.0
    return QuadratureScheme(kernel, grid, near_radius=(q + 0.5) * h,
                            torus_weights=W, dropped_cross_moment=dropped)


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
