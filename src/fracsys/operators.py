"""Evaluation of the nonlocal operators L_K, the fractional Laplacian, the
bilinear form and the order-s energy, plus the independent spectral oracle.

All real-space evaluations of one kernel on one grid consume the same
quadrature weights (see quadrature.py), laid out as one symmetric offset
array per scheme: [w[::-1], 0, w] on the line, the plane weights in 2-d, the
torus weights on periodic grids.  Every evaluation is built from the one
correlation (W*f)(x) = sum_k W_k f(x+k): an FFT correlation over the values
padded by the rule's exterior data in free space, a circular one on the
torus.  L u = W*u - S u (S = sum_k W_k) plus the closed-form tail, and the
bilinear form and the energy follow from the polarization identity

    sum_k W_k (a(x) - a(x+k)) (b(x) - b(x+k))
        = S a b - (a (W*b) + b (W*a)) + W*(a b).

The pointwise identity

    -L(v^2)(x) + 2 v(x) L v(x) + 2 B(v, v)(x) = 0

holds exactly in exact arithmetic, term by term per sampled point y
(2 v(x) (v(x) - v(y)) - (v(x) - v(y))^2 equals v(x)^2 - v(y)^2).  In floating
point it holds to the rounding of the correlations, not by per-node exact
cancellation; that stays well inside the 1e-12 relative gate of
verify.square_identity_check.  Each field is shifted by the midpoint of its stored range
before it is correlated: L, B and the energy ignore constants, the shift
keeps the correlated values (and so the rounding) small, and a constant
field gives exactly zero.

Evaluations are pure functions of immutable inputs; applying them at many
points concurrently needs no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg import toeplitz

from .errors import DomainError
from .fields import ExteriorRule, GridSpec, SampledField
from .kernels import KernelSpec, make_fractional_kernel
from .quadrature import (QuadratureScheme, _periodic_line_window, _torus_fold,
                         scheme_for)

__all__ = [
    "EnergyValue",
    "apply_LK",
    "apply_LK_field",
    "apply_fractional_laplacian",
    "apply_fractional_laplacian_field",
    "bilinear_form",
    "bilinear_form_field",
    "s_energy",
    "spectral_apply",
    "AssembledOperator",
    "assemble_dirichlet",
]


# -- the correlation core ------------------------------------------------------


def _offset_weights(scheme: QuadratureScheme) -> np.ndarray:
    """The scheme's weights as one array: indexed by torus shift on periodic
    grids, centred on the zero offset in free space."""
    if scheme.torus_weights is not None:
        return scheme.torus_weights
    if scheme.plane_weights is not None:
        return scheme.plane_weights
    w = scheme.line_weights
    return np.concatenate([w[::-1], [0.0], w])


def _correlator(W: np.ndarray, shape: tuple, periodic: bool):
    """f -> sum over offsets k of W[k] f(x + k) at every stored node x, for f
    of the given shape.  On the torus the sum wraps (a circular FFT
    correlation); in free space f holds the values padded by W's half-width
    and only the stored nodes are kept ('valid' mode: a real FFT correlation
    zero-padded so that nothing wraps)."""
    if periodic:
        Fw = np.conj(np.fft.fftn(W))
        return lambda f: np.real(np.fft.ifftn(np.fft.fftn(f) * Fw))
    size = tuple(next_fast_len(n, real=True) for n in shape)
    axes = tuple(range(len(shape)))
    keep = tuple(slice(0, n - k + 1) for n, k in zip(shape, W.shape))
    Fw = np.conj(np.fft.rfftn(W, s=size, axes=axes))
    return lambda f: np.fft.irfftn(np.fft.rfftn(f, s=size, axes=axes) * Fw,
                                   s=size, axes=axes)[keep]


def _pair_sum(corr, S, a, b, Ea, Eb):
    """sum over k of W[k] (a(x) - Ea(x+k)) . (b(x) - Eb(x+k)), summed over
    components, through the polarization identity.  S is sum(W), or W*chi
    when Ea, Eb are masked by chi.  Grouping makes it bit-symmetric in a, b."""
    total = 0.0
    for c in range(a.shape[-1]):
        cb = corr(Eb[..., c])
        ca = cb if Ea is Eb else corr(Ea[..., c])
        total = total + (S * (a[..., c] * b[..., c])
                         - (a[..., c] * cb + b[..., c] * ca)
                         + corr(Ea[..., c] * Eb[..., c]))
    return total


def _window(E: np.ndarray, W: np.ndarray, idx: tuple, periodic: bool):
    """The values of E that W weighs at the stored node idx, aligned with W."""
    if periodic:
        return np.roll(E, [-k for k in idx], axis=tuple(range(len(idx))))
    return E[tuple(slice(k, k + n) for k, n in zip(idx, W.shape))]


# -- value tables -------------------------------------------------------------


def _padded_points(grid: GridSpec, M: int):
    """Node coordinates of the grid padded by M nodes per side, and the
    interior-ball indicator of each."""
    ax = grid.axis()
    full = np.concatenate([ax[0] + grid.h * np.arange(-M, 0), ax,
                           ax[-1] + grid.h * np.arange(1, M + 1)])
    pts = np.stack(np.meshgrid(*([full] * grid.dim), indexing="ij"), axis=-1)
    chi = np.sqrt(np.sum(pts * pts, axis=-1)) < grid.radius - 1e-12
    return pts, chi


def _rule_values(rule: ExteriorRule, pts: np.ndarray, m: int) -> np.ndarray:
    try:
        return rule.values(pts, m)
    except Exception as exc:  # noqa: BLE001 - rule failures become domain errors
        raise DomainError(f"exterior rule undefined at required radii: {exc}")


def _tail_directions(dim: int):
    """One direction per tail_mass: both rays in 1-d, one (the rule's limit
    is direction independent) outside the truncation square in 2-d."""
    return (np.array([1.0]), np.array([-1.0])) if dim == 1 else (np.array([1.0, 0.0]),)


class _Table(NamedTuple):
    v: np.ndarray              # stored values, shifted
    E: np.ndarray              # values the correlation reads, shifted
    chi: Optional[np.ndarray]  # interior indicator on E's positions (free space)
    g: Optional[list]          # shifted far limits per tail direction, or None


def _table(u: SampledField, M: int) -> _Table:
    """u shifted by the midpoint of its stored range, on the torus or padded by M
    nodes per side with the exterior rule's values beyond the stored nodes.
    g is [] on the torus (images folded in, no tail) and None when the rule
    has no closed-form far field."""
    grid = u.grid
    flat = np.asarray(u.values).reshape(-1, u.m)
    ref = 0.5 * (np.max(flat, axis=0) + np.min(flat, axis=0))
    v = np.asarray(u.values) - ref
    if grid.periodic:
        return _Table(v, v, None, [])
    pts, chi = _padded_points(grid, M)
    E = np.zeros((*chi.shape, u.m))
    E[(slice(M, M + grid.shape[0]),) * grid.dim] = v
    out = np.max(np.abs(pts), axis=-1) > grid.extent + 1e-12
    if np.any(out):
        E[out] = _rule_values(u.exterior, pts[out], u.m) - ref
    limits = u.exterior.far_limits(u.m)
    g = None if limits is None else [limits(d) - ref for d in _tail_directions(grid.dim)]
    return _Table(v, E, chi, g)


def _far_magnitude(u: SampledField) -> float:
    """Crude sup bound used only in truncation-error estimates."""
    mags = [float(np.max(u.magnitude()))]
    if u.bound is not None:
        mags.append(float(u.bound))
    T = u.grid.truncation_radius
    probes = T * np.concatenate([np.eye(u.grid.dim), -np.eye(u.grid.dim)])
    try:
        g = u.exterior.values(probes, u.m)
        mags.append(float(np.max(np.sqrt(np.sum(g * g, axis=-1)))))
    except DomainError:
        pass
    return max(mags)


def _interior_node_index(u: SampledField, x):
    idx = u.grid.index_of(x)
    pts = u.grid.points()
    r = float(np.linalg.norm(pts[idx]))
    if not u.grid.periodic and r >= u.grid.radius - 1e-12:
        raise DomainError(f"evaluation point {x} is not an interior node")
    return idx


# -- L_K ------------------------------------------------------------------------


def _apply(u: SampledField, kernel: KernelSpec, idx=None):
    """L_K u at every stored node, or at the node idx only (one dot product)."""
    scheme = scheme_for(kernel, u.grid)
    W = _offset_weights(scheme)
    t = _table(u, W.shape[0] // 2)
    if idx is None:
        corr = _correlator(W, t.E.shape[:-1], u.grid.periodic)
        v = t.v
        WE = np.stack([corr(t.E[..., c]) for c in range(u.m)], axis=-1)
    else:
        v = t.v[idx]
        WE = np.tensordot(W, _window(t.E, W, idx, u.grid.periodic), axes=W.ndim)
    out = WE - float(np.sum(W)) * v
    for g in t.g or ():
        out += scheme.tail_mass * (g - v)
    est = 0.0 if t.g is not None else 4.0 * _far_magnitude(u) * scheme.tail_upper
    return out, est


def apply_LK_field(u: SampledField, kernel: KernelSpec):
    """L_K u at every stored node.  Returns (values, truncation_estimate);
    values has the field's shape, the estimate is a scalar bound on the
    neglected tail (0 when the exterior rule has a closed-form far field)."""
    return _apply(u, kernel)


def apply_LK(u: SampledField, kernel: KernelSpec, x) -> float:
    """L_K u(x) for a scalar field at an interior grid node."""
    if u.m != 1:
        raise DomainError("apply_LK expects a scalar field; use components")
    vals, _ = _apply(u, kernel, _interior_node_index(u, x))
    return float(vals[0])


def apply_fractional_laplacian_field(u: SampledField, s: float):
    """(-Delta)^s u = -L u with the fractional kernel of order 2s."""
    kernel = make_fractional_kernel(u.grid.dim, s)
    vals, est = apply_LK_field(u, kernel)
    return -vals, est


def apply_fractional_laplacian(u: SampledField, s: float, x) -> float:
    if u.m != 1:
        raise DomainError("pointwise evaluation expects a scalar field")
    vals, _ = _apply(u, make_fractional_kernel(u.grid.dim, s),
                     _interior_node_index(u, x))
    return -float(vals[0])


# -- bilinear form ------------------------------------------------------------


def _check_same_discretization(u: SampledField, w: SampledField):
    if u.grid != w.grid:
        raise DomainError("fields must share one grid")


def _bilinear(u: SampledField, w: SampledField, kernel: KernelSpec, idx=None):
    """B_K(u, w) at every stored node, or at the node idx only."""
    _check_same_discretization(u, w)
    scheme = scheme_for(kernel, u.grid)
    W = _offset_weights(scheme)
    tu = _table(u, W.shape[0] // 2)
    tw = tu if w is u else _table(w, W.shape[0] // 2)
    if idx is None:
        corr = _correlator(W, tu.E.shape[:-1], u.grid.periodic)
        a, b = tu.v, tw.v
        acc = 0.5 * _pair_sum(corr, float(np.sum(W)), a, b, tu.E, tw.E)
    else:
        a, b = tu.v[idx], tw.v[idx]
        diff = np.sum((a - _window(tu.E, W, idx, u.grid.periodic))
                      * (b - _window(tw.E, W, idx, u.grid.periodic)), axis=-1)
        acc = 0.5 * float(np.tensordot(W, diff, axes=W.ndim))
    if tu.g is None or tw.g is None:
        return acc, 2.0 * _far_magnitude(u) * _far_magnitude(w) * scheme.tail_upper
    for gu, gw in zip(tu.g, tw.g):
        acc = acc + 0.5 * scheme.tail_mass * np.sum((a - gu) * (b - gw), axis=-1)
    return acc, 0.0


def bilinear_form_field(u: SampledField, w: SampledField, kernel: KernelSpec):
    """B_K(u, w) at every stored node; nonnegative for u = w."""
    return _bilinear(u, w, kernel)


def bilinear_form(u: SampledField, w: SampledField, kernel: KernelSpec, x) -> float:
    vals, _ = _bilinear(u, w, kernel, _interior_node_index(u, x))
    return float(vals)


# -- energy --------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyValue:
    """Order-s energy split into the domain-domain part and the tail that
    couples the domain with its complement; total = interior + tail."""

    interior_part: float
    tail_part: float

    @property
    def total(self) -> float:
        return self.interior_part + self.tail_part


def s_energy(u: SampledField, s: float) -> EnergyValue:
    """Energy of order s: quarter-weighted double sum over interior pairs
    plus half-weighted interior-exterior sum, diagonal handled by the shared
    near-field moment rule."""
    grid = u.grid
    if grid.dim == 2 and grid.periodic:
        raise DomainError("s_energy supports 1-d grids and free-space 2-d grids")
    scheme = scheme_for(make_fractional_kernel(grid.dim, s), grid)
    hvol = grid.h**grid.dim
    W = _offset_weights(scheme)
    t = _table(u, W.shape[0] // 2)
    if grid.periodic:
        # principal-window pairs count as interior, image pairs as tail
        base, _ = _periodic_line_window(scheme.kernel, grid)
        parts = []
        for Wp in (_torus_fold(base, grid.shape[0]),
                   _torus_fold(scheme.line_weights - base, grid.shape[0])):
            corr = _correlator(Wp, grid.shape, True)
            parts.append(float(np.sum(_pair_sum(corr, float(np.sum(Wp)),
                                                t.v, t.v, t.E, t.E))))
        return EnergyValue(0.25 * hvol * parts[0], 0.5 * hvol * parts[1])
    corr = _correlator(W, t.chi.shape, False)
    chi = t.chi.astype(float)
    Em = t.E * chi[..., None]
    g_all = _pair_sum(corr, float(np.sum(W)), t.v, t.v, t.E, t.E)
    g_int = _pair_sum(corr, corr(chi), t.v, t.v, Em, Em)
    inside = grid.interior_mask()
    tail_closed = 0.0
    for g in t.g or ():
        tail_closed += float(np.sum(
            scheme.tail_mass * np.sum((t.v - g) ** 2, axis=-1)[inside]))
    interior = 0.25 * hvol * float(np.sum(g_int[inside]))
    tail = 0.5 * hvol * (float(np.sum((g_all - g_int)[inside])) + tail_closed)
    return EnergyValue(interior, max(tail, 0.0) if grid.dim == 2 else tail)


# -- spectral oracle -----------------------------------------------------------


def _spectral_multiply(grid: GridSpec, symbol, v: np.ndarray) -> np.ndarray:
    """The Fourier multiplier symbol(k_1, ..., k_dim) applied to the scalar
    values v of a periodic grid; k_i are the torus frequencies along axis i,
    broadcast against each other."""
    n = grid.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / grid.period)
    ks = np.meshgrid(*([k] * grid.dim), indexing="ij", sparse=True)
    return np.real(np.fft.ifftn(symbol(*ks) * np.fft.fftn(v)))


def spectral_apply(u: SampledField, s: float) -> SampledField:
    """(-Delta)^s on a periodic field through the Fourier multiplier
    |xi|^(2s).  Exact on trigonometric polynomials; serves as the independent
    oracle for the real-space quadrature."""
    grid = u.grid
    if not grid.periodic:
        raise DomainError("spectral_apply needs a periodic field")
    if grid.dim > 2:
        raise DomainError("spectral_apply supports dimensions 1 and 2")
    v = np.asarray(u.values)
    out = np.stack([_spectral_multiply(grid, lambda *k: sum(kk**2 for kk in k) ** s,
                                       v[..., c]) for c in range(u.m)], axis=-1)
    return u.with_values(out)


# -- dense assembly -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Dense interior form of -L_K with exterior data folded into a load:

        (-L u)(interior nodes) = A @ u_interior - load

    A is symmetric positive definite (M-matrix: positive diagonal, negative
    off-diagonal, strictly dominant through the tail mass).  interior_flat
    indexes the interior nodes in the flattened grid; hvol is the node
    volume, used by the quadratic energy form."""

    grid: GridSpec
    kernel: KernelSpec
    A: np.ndarray
    load: np.ndarray
    interior_flat: np.ndarray
    hvol: float
    truncation_estimate: float

    def apply_neg_lk(self, u_int: np.ndarray) -> np.ndarray:
        return self.A @ u_int - self.load

    def energy_quadratic(self, u_int: np.ndarray) -> float:
        """(1/2) <u, -L u> h^n up to a u-independent constant; tracks the
        order-s energy along flows on a fixed grid."""
        return self.hvol * (0.5 * float(np.sum(u_int * (self.A @ u_int)))
                            - float(np.sum(u_int * self.load)))


_DENSE_CAP = 6000


def assemble_dirichlet(kernel: KernelSpec, grid: GridSpec, rule: ExteriorRule,
                       m: int = 1) -> AssembledOperator:
    """Assemble -L_K on the interior nodes of the grid ball with the given
    exterior rule supplying all data outside."""
    if grid.periodic:
        raise DomainError("Dirichlet assembly needs a free-space grid")
    scheme = scheme_for(kernel, grid)
    W = _offset_weights(scheme)
    M = W.shape[0] // 2
    inside = grid.interior_mask()
    interior_flat = np.flatnonzero(inside)
    n_int = interior_flat.size
    if n_int > _DENSE_CAP:
        raise DomainError(f"dense assembly capped at {_DENSE_CAP} unknowns")
    limits = rule.far_limits(m)
    directions = _tail_directions(grid.dim)
    if grid.dim == 1:
        # interior nodes are contiguous: A is Toeplitz in the offset
        col = np.zeros(n_int)
        w = W[M : M + n_int]
        col[: w.size] = -w
        A = toeplitz(col)
    else:
        # A[r, c] = -W[ij_c - ij_r + (M, M)], through flat offsets into W,
        # gathered a block of rows at a time (no n_int x n_int index arrays)
        off = np.ravel_multi_index(np.argwhere(inside).T, W.shape)
        centre = M * W.shape[1] + M
        A = np.empty((n_int, n_int))
        for r in range(0, n_int, 64):
            A[r : r + 64] = -W.ravel()[off[None, :] - off[r : r + 64, None] + centre]
    np.fill_diagonal(A, float(np.sum(W))
                     + (len(directions) * scheme.tail_mass if limits else 0.0))
    # rule values at every non-interior position (collar nodes included)
    pts, chi = _padded_points(grid, M)
    vals = np.zeros((*chi.shape, m))
    vals[~chi] = _rule_values(rule, pts[~chi], m)
    corr = _correlator(W, chi.shape, False)
    load = np.stack([corr(vals[..., c]) for c in range(m)],
                    axis=-1).reshape(-1, m)[interior_flat]
    est = 0.0
    if limits is not None:
        load += scheme.tail_mass * sum(limits(d) for d in directions)[None, :]
    else:
        data = SampledField(grid, np.zeros((*grid.shape, m)), rule)
        est = 4.0 * _far_magnitude(data) * scheme.tail_upper
    return AssembledOperator(grid, kernel, A, load, interior_flat,
                             grid.h**grid.dim, est)
