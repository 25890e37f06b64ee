"""Evaluation of the nonlocal operators L_K, the fractional Laplacian, the
bilinear form and the order-s energy, plus the independent spectral oracle.

All real-space evaluations of one kernel on one grid consume the same
quadrature weights, the one offset array QuadratureScheme.weights (see
quadrature.py): centred on the zero offset in free space, indexed by torus
shift on periodic grids.  Every evaluation is built from the one
correlation (W*f)(x) = sum_k W_k f(x+k): an FFT correlation over the values
padded by the rule's exterior data in free space, a circular one on the
torus.  L u = W*u - S u (S = sum_k W_k) plus the closed-form tail, and the
bilinear form follows from the polarization identity

    sum_k W_k (a(x) - a(x+k)) (b(x) - b(x+k))
        = S a b - (a (W*b) + b (W*a)) + W*(a b).

The order-s energy is B(u, u) summed over the domain, on every grid: pairs
with both ends in the domain are counted once, pairs that reach the
complement (free space only; the torus has none) in full.  Its interior part
is the same pair sum masked by the interior indicator, through the same
correlator.

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

The Dirichlet load of assemble_dirichlet is L_K of the exterior data alone
(zero on the interior nodes, the rule on every other node), evaluated by the
same table, correlation and tail as any other field, so the load and its
truncation estimate read the weights and the rule exactly as L_K does.

Evaluations are pure functions of immutable inputs; applying them at many
points concurrently needs no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg
from scipy.fft import next_fast_len

from .errors import DomainError, SolverError
from .fields import ExteriorRule, GridSpec, SampledField
from .kernels import KernelSpec, make_fractional_kernel
from .quadrature import scheme_for

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
    """Node coordinates of the grid padded by M nodes per side."""
    ax = grid.axis()
    full = np.concatenate([ax[0] + grid.h * np.arange(-M, 0), ax,
                           ax[-1] + grid.h * np.arange(1, M + 1)])
    return np.stack(np.meshgrid(*([full] * grid.dim), indexing="ij"), axis=-1)


def _rule_values(rule: ExteriorRule, pts: np.ndarray, m: int) -> np.ndarray:
    try:
        return rule.values(pts, m)
    except Exception as exc:  # noqa: BLE001 - rule failures become domain errors
        raise DomainError(f"exterior rule undefined at required radii: {exc}")


class _Table(NamedTuple):
    v: np.ndarray              # stored values, shifted
    E: np.ndarray              # values the correlation reads, shifted
    g: Optional[list]          # shifted far limits per tail direction, or None
    ref: np.ndarray            # the shift: the midpoint of the stored range


def _table(u: SampledField, scheme) -> _Table:
    """u shifted by the midpoint of its stored range, on the torus or padded by
    the weights' half-width with the exterior rule's values beyond the stored
    nodes.  g is [] on the torus (images folded in, no tail) and None when the
    rule has no closed-form far field."""
    grid = u.grid
    flat = np.asarray(u.values).reshape(-1, u.m)
    ref = 0.5 * (np.max(flat, axis=0) + np.min(flat, axis=0))
    v = np.asarray(u.values) - ref
    if grid.periodic:
        return _Table(v, v, [], ref)
    M = scheme.weights.shape[0] // 2
    pts = _padded_points(grid, M)
    E = np.zeros((*pts.shape[:-1], u.m))
    stored = (slice(M, M + grid.shape[0]),) * grid.dim
    out = np.ones(pts.shape[:-1], dtype=bool)
    out[stored] = False
    E[out] = _rule_values(u.exterior, pts[out], u.m) - ref
    E[stored] = v
    limits = u.exterior.far_limits(u.m)
    g = None if limits is None else [limits(d) - ref for d in scheme.tail_directions]
    return _Table(v, E, g, ref)


def _far_magnitude(u: SampledField, t: _Table) -> float:
    """Crude sup bound used only in truncation-error estimates: the largest
    |u| the table holds (the stored values and the rule on every padded
    node), or u.bound when that is larger."""
    vals = t.E + t.ref
    sup = float(np.max(np.sqrt(np.sum(vals * vals, axis=-1))))
    return sup if u.bound is None else max(sup, float(u.bound))


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
    W = scheme.weights
    t = _table(u, scheme)
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
    est = 0.0 if t.g is not None else 4.0 * _far_magnitude(u, t) * scheme.tail_upper
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


def _tables(u: SampledField, w: SampledField, kernel: KernelSpec):
    """The scheme binding kernel to the fields' one grid, and their tables."""
    if u.grid != w.grid:
        raise DomainError("fields must share one grid")
    scheme = scheme_for(kernel, u.grid)
    tu = _table(u, scheme)
    return scheme, tu, tu if w is u else _table(w, scheme)


def _bilinear(u: SampledField, w: SampledField, scheme, tu: _Table, tw: _Table,
              corr=None, idx=None):
    """B(u, w) and its truncation estimate from the tables tu, tw: at every
    stored node through corr, the correlator of the weights over the tables,
    or at the node idx only."""
    W = scheme.weights
    if idx is None:
        a, b = tu.v, tw.v
        acc = 0.5 * _pair_sum(corr, float(np.sum(W)), a, b, tu.E, tw.E)
    else:
        a, b = tu.v[idx], tw.v[idx]
        diff = np.sum((a - _window(tu.E, W, idx, u.grid.periodic))
                      * (b - _window(tw.E, W, idx, u.grid.periodic)), axis=-1)
        acc = 0.5 * float(np.tensordot(W, diff, axes=W.ndim))
    if tu.g is None or tw.g is None:
        return acc, 2.0 * _far_magnitude(u, tu) * _far_magnitude(w, tw) * scheme.tail_upper
    for gu, gw in zip(tu.g, tw.g):
        acc = acc + 0.5 * scheme.tail_mass * np.sum((a - gu) * (b - gw), axis=-1)
    return acc, 0.0


def bilinear_form_field(u: SampledField, w: SampledField, kernel: KernelSpec):
    """B_K(u, w) at every stored node; nonnegative for u = w."""
    scheme, tu, tw = _tables(u, w, kernel)
    corr = _correlator(scheme.weights, tu.E.shape[:-1], u.grid.periodic)
    return _bilinear(u, w, scheme, tu, tw, corr=corr)


def bilinear_form(u: SampledField, w: SampledField, kernel: KernelSpec, x) -> float:
    idx = _interior_node_index(u, x)
    vals, _ = _bilinear(u, w, *_tables(u, w, kernel), idx=idx)
    return float(vals)


# -- energy --------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyValue:
    """Order-s energy h^n sum over the domain of B(u, u), split into the part
    from pairs with both ends in the domain and the tail from pairs that
    reach its complement (0.0 on the torus, which has none); total =
    interior + tail.  truncation_estimate bounds the far tail left out when
    the exterior rule has no closed-form far field (h^n |domain| times B's
    estimate), 0 otherwise."""

    interior_part: float
    tail_part: float
    truncation_estimate: float

    @property
    def total(self) -> float:
        return self.interior_part + self.tail_part


def s_energy(u: SampledField, s: float) -> EnergyValue:
    """Energy of order s: h^n sum over the domain of B(u, u).  Pairs with both
    ends in the domain come in twice at half weight, so the interior part is
    a quarter of the pair sum masked by the interior indicator chi, and the
    tail is the rest.  For zero exterior data, and always on the torus, the
    total is (1/2) <u, -L u>."""
    grid = u.grid
    scheme, t, _ = _tables(u, u, make_fractional_kernel(grid.dim, s))
    corr = _correlator(scheme.weights, t.E.shape[:-1], grid.periodic)
    B, est = _bilinear(u, u, scheme, t, t, corr=corr)
    inside = grid.interior_mask()
    hvol = grid.h**grid.dim
    total = hvol * float(np.sum(B[inside]))
    est = hvol * int(np.count_nonzero(inside)) * est
    if grid.periodic:
        return EnergyValue(0.5 * total, 0.0, est)
    chi = np.pad(inside, scheme.weights.shape[0] // 2).astype(float)
    Em = t.E * chi[..., None]
    masked = _pair_sum(corr, corr(chi), t.v, t.v, Em, Em)
    interior = 0.25 * hvol * float(np.sum(masked[inside]))
    return EnergyValue(interior, total - 2.0 * interior, est)


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
    indexes the interior nodes in the flattened grid; rule is the exterior
    data folded into load; hvol is the node volume, used by the quadratic
    energy form.  Every dense interior solve goes through solve, and field
    turns its interior values into a full field."""

    grid: GridSpec
    kernel: KernelSpec
    rule: ExteriorRule
    A: np.ndarray
    load: np.ndarray
    interior_flat: np.ndarray
    hvol: float
    truncation_estimate: float

    def apply_neg_lk(self, u_int: np.ndarray) -> np.ndarray:
        return self.A @ u_int - self.load

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^(-1) b by dense Cholesky; SolverError when A is not positive
        definite to working precision."""
        try:
            return scipy.linalg.solve(self.A, b, assume_a="pos")
        except np.linalg.LinAlgError as exc:
            raise SolverError("interior system could not be factorized",
                              condition_estimate=float(np.linalg.cond(self.A))) from exc

    def field(self, u_int: np.ndarray, bound=None) -> SampledField:
        """The field with values u_int (n_interior, m) on the interior nodes
        and the exterior rule everywhere else."""
        return _dirichlet_field(self.grid, self.rule, self.interior_flat, u_int, bound)

    def energy_quadratic(self, u_int: np.ndarray) -> float:
        """(1/2) <u, -L u> h^n up to a u-independent constant; tracks the
        order-s energy along flows on a fixed grid."""
        return self.hvol * (0.5 * float(np.sum(u_int * (self.A @ u_int)))
                            - float(np.sum(u_int * self.load)))


_DENSE_CAP = 6000


def _dirichlet_field(grid: GridSpec, rule: ExteriorRule, interior_flat: np.ndarray,
                     u_int: np.ndarray, bound=None) -> SampledField:
    """u_int (n_interior, m) on the interior nodes, the rule on every other
    stored node."""
    m = u_int.shape[1]
    pts = grid.points().reshape(-1, grid.dim)
    vals = np.zeros((pts.shape[0], m))
    outside = np.ones(pts.shape[0], dtype=bool)
    outside[interior_flat] = False
    vals[outside] = _rule_values(rule, pts[outside], m)
    vals[interior_flat] = u_int
    return SampledField(grid, vals.reshape(*grid.shape, m), rule, bound)


def assemble_dirichlet(kernel: KernelSpec, grid: GridSpec, rule: ExteriorRule,
                       m: int = 1) -> AssembledOperator:
    """Assemble -L_K on the interior nodes of the grid ball with the given
    exterior rule supplying all data outside.  The load is L_K of the
    exterior data alone (zero on the interior nodes), through the same padded
    table, tail and truncation estimate as every other evaluation."""
    if grid.periodic:
        raise DomainError("Dirichlet assembly needs a free-space grid")
    scheme = scheme_for(kernel, grid)
    W = scheme.weights
    inside = grid.interior_mask()
    interior_flat = np.flatnonzero(inside)
    n_int = interior_flat.size
    if n_int > _DENSE_CAP:
        raise DomainError(f"dense assembly capped at {_DENSE_CAP} unknowns")
    # A[r, c] = -W[x_c - x_r], through flat offsets into W (its centre is the
    # zero offset), gathered a block of rows at a time (no n_int x n_int
    # index arrays)
    off = np.ravel_multi_index(np.argwhere(inside).T, W.shape)
    A = np.empty((n_int, n_int))
    for r in range(0, n_int, 64):
        A[r : r + 64] = -W.ravel()[off[None, :] - off[r : r + 64, None] + W.size // 2]
    np.fill_diagonal(A, scheme.diagonal() if rule.limit is not None else float(np.sum(W)))
    data = _dirichlet_field(grid, rule, interior_flat, np.zeros((n_int, m)))
    load, est = _apply(data, kernel)
    return AssembledOperator(grid, kernel, rule, A, load.reshape(-1, m)[interior_flat],
                             interior_flat, grid.h**grid.dim, est)
