"""Evaluation of the nonlocal operators L_K, the fractional Laplacian, the
bilinear form and the order-s energy, plus the independent spectral oracle.

All real-space evaluations of one kernel on one grid consume the same
quadrature weights, the one offset array QuadratureScheme.weights (see
quadrature.py): centred on the zero offset in free space, indexed by torus
shift on periodic grids.  Every evaluation is built from the one
correlation (W*f)(x) = sum_k W_k f(x+k) of _correlator: one real-FFT
product (_fft_product) over the values padded by the rule's exterior data
in free space, a cyclic one on the torus, or at a single node the dot
product of W with the values it weighs there.  The interior operator's
circulants and the spectral oracle's multipliers are the same product.
L u = W*u - S u (S = sum_k W_k) plus the closed-form tail, and the bilinear
form, at every node or at one, follows from the polarization identity

    sum_k W_k (a(x) - a(x+k)) (b(x) - b(x+k))
        = S a b - (a (W*b) + b (W*a)) + W*(a b).

The order-s energy is B(u, u) summed over the domain, on every grid: pairs
with both ends in the domain are counted once, pairs that reach the
complement (free space only; the torus has none) in full.  As W is even, the
interior part needs only W*chi and W*(chi u), chi the interior indicator; on
the torus, where W*chi = S, it is the whole energy, (1/2) <u, -L u>.

The pointwise identity

    -L(v^2)(x) + 2 v(x) L v(x) + 2 B(v, v)(x) = 0

holds in exact arithmetic term by term per sampled point y (2 v(x) (v(x) -
v(y)) - (v(x) - v(y))^2 equals v(x)^2 - v(y)^2), and in floating point to the
rounding of the correlations, well inside the 1e-12 relative gate of
verify.square_identity_check.  Each field is shifted by the midpoint of its
stored range before it is correlated: L, B and the energy ignore constants,
the shift keeps the rounding small, and a constant field gives exactly zero.

The Dirichlet load of assemble_dirichlet is L_K of the exterior data alone
(zero on the interior nodes, the rule on every other node), evaluated by the
same table, correlation and tail as any other field, so the load and its
truncation estimate read the weights and the rule exactly as L_K does.

_padding keeps the coordinates and mask of the padded nodes beyond the
stored block per grid and width, read-only.  A table that holds only zeros
(the load of zero exterior data) is not correlated: its correlation is 0.

Evaluations are pure functions of immutable inputs; applying them at many
points concurrently needs no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
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


def _fft_product(f: np.ndarray, spectrum: np.ndarray, size: tuple, axes: tuple,
                 keep: tuple) -> np.ndarray:
    """irfftn(rfftn(f, size, axes) * spectrum, size, axes) cropped to its first
    keep[i] entries along axes[i] (axes[-1] the last axis of f): the same
    1-d transforms as irfftn, in the same order, but each leading axis is
    cropped before the next, so the rows cut away are never transformed."""
    F = np.fft.rfftn(f, s=size, axes=axes) * spectrum
    for ax, n, k in zip(axes[:-1], size, keep):
        F = np.fft.ifft(F, n, axis=ax)[(slice(None),) * ax + (slice(0, k),)]
    return np.fft.irfft(F, size[-1], axis=axes[-1])[..., : keep[-1]]


def _correlator(W: np.ndarray, shape: tuple, periodic: bool, idx: tuple = ()):
    """f -> sum over offsets k of W[k] f(x + k) for f of the given shape, at
    every stored node or, when idx names one, at that node alone (one dot
    product).  On the torus the sum wraps; in free space f holds the values
    padded by W's half-width, zero-padded further so that nothing wraps, and
    only the stored nodes are kept."""
    if idx:
        return lambda f: np.tensordot(W, _window(f, W, idx, periodic), axes=W.ndim)
    axes = tuple(range(len(shape)))
    size = shape if periodic else tuple(next_fast_len(n, real=True) for n in shape)
    keep = shape if periodic else tuple(n - k + 1 for n, k in zip(shape, W.shape))
    spectrum = np.conj(np.fft.rfftn(W, s=size, axes=axes))
    return lambda f: _fft_product(f, spectrum, size, axes, keep)


def _window(E: np.ndarray, W: np.ndarray, idx: tuple, periodic: bool):
    """The values of E that W weighs at the stored node idx, aligned with W."""
    if periodic:
        return np.roll(E, [-k for k in idx], axis=tuple(range(len(idx))))
    return E[tuple(slice(k, k + n) for k, n in zip(idx, W.shape))]


# -- value tables -------------------------------------------------------------


@lru_cache(maxsize=4)
def _padding(grid: GridSpec, M: int):
    """The nodes of the grid padded by M nodes per side that lie beyond the
    stored block: their coordinates (k, dim), and the mask marking them in
    the padded shape.  Both depend on the grid alone, so they are built once
    per grid and width, and are read-only.  An entry holds dim * 8 + 1
    bytes per padded node (about 2.3 MB for the 385^2 padded nodes of a
    2-d grid at h = 1/32), and only the last four are kept: fracsys
    verify, the command that reads the most, pads three grids."""
    ax = grid.axis()
    full = np.concatenate([ax[0] + grid.h * np.arange(-M, 0), ax,
                           ax[-1] + grid.h * np.arange(1, M + 1)])
    pts = np.stack(np.meshgrid(*([full] * grid.dim), indexing="ij"), axis=-1)
    out = np.ones(pts.shape[:-1], dtype=bool)
    out[(slice(M, M + grid.shape[0]),) * grid.dim] = False
    outside = pts[out]
    outside.setflags(write=False)
    out.setflags(write=False)
    return outside, out


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
    outside, out = _padding(grid, M)
    E = np.empty((*out.shape, u.m))
    E[out] = _rule_values(u.exterior, outside, u.m) - ref
    E[(slice(M, M + grid.shape[0]),) * grid.dim] = v
    limits = u.exterior.far_limits(u.m)
    g = None if limits is None else [limits(d) - ref for d in scheme.tail_directions]
    return _Table(v, E, g, ref)


def _far_magnitude(u: SampledField, t: _Table) -> float:
    """Crude sup bound used only in truncation-error estimates: the largest
    |u| the table holds, or u.bound when that is larger; the root of the
    largest squared norm (sqrt is monotone), without an array of norms."""
    vals = t.E + t.ref
    vals *= vals
    sup = float(np.sqrt(np.max(np.sum(vals, axis=-1))))
    return sup if u.bound is None else max(sup, float(u.bound))


def _interior_node_index(u: SampledField, x):
    idx = u.grid.index_of(x)
    if not u.grid.interior_mask()[idx]:
        raise DomainError(f"evaluation point {x} is not an interior node")
    return idx


# -- L_K ------------------------------------------------------------------------


def _apply(u: SampledField, kernel: KernelSpec, idx: tuple = ()):
    """L_K u at every stored node, or at the node idx only (see _correlator)."""
    scheme = scheme_for(kernel, u.grid)
    W = scheme.weights
    t = _table(u, scheme)
    v = t.v[idx]
    if t.E.any():
        corr = _correlator(W, t.E.shape[:-1], u.grid.periodic, idx)
        WE = np.stack([corr(t.E[..., c]) for c in range(u.m)], axis=-1)
    else:  # the correlation of an all-zero table is exactly zero
        WE = np.zeros(v.shape)
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
    return -apply_LK(u, make_fractional_kernel(u.grid.dim, s), x)


# -- bilinear form ------------------------------------------------------------


def _tables(u: SampledField, w: SampledField, kernel: KernelSpec):
    """The scheme binding kernel to the fields' one grid, and their tables."""
    if u.grid != w.grid:
        raise DomainError("fields must share one grid")
    scheme = scheme_for(kernel, u.grid)
    tu = _table(u, scheme)
    return scheme, tu, tu if w is u else _table(w, scheme)


def _bilinear(u: SampledField, w: SampledField, scheme, tu: _Table, tw: _Table,
              corr, idx: tuple = ()):
    """B(u, w) and its truncation estimate from the tables tu, tw through
    corr, the correlator of the weights over the tables: at every stored
    node, or at the node idx that corr evaluates; the polarization identity,
    summed over components, is grouped to be bit-symmetric in u, w."""
    a, b = tu.v[idx], tw.v[idx]
    S = float(np.sum(scheme.weights))
    pairs = 0.0
    for c in range(a.shape[-1]):
        cb = corr(tw.E[..., c])
        ca = cb if tu is tw else corr(tu.E[..., c])
        pairs = pairs + (S * (a[..., c] * b[..., c]) - (a[..., c] * cb + b[..., c] * ca)
                         + corr(tu.E[..., c] * tw.E[..., c]))
    acc = 0.5 * pairs
    if tu.g is None or tw.g is None:
        return acc, 2.0 * _far_magnitude(u, tu) * _far_magnitude(w, tw) * scheme.tail_upper
    for gu, gw in zip(tu.g, tw.g):
        acc = acc + 0.5 * scheme.tail_mass * np.sum((a - gu) * (b - gw), axis=-1)
    return acc, 0.0


def bilinear_form_field(u: SampledField, w: SampledField, kernel: KernelSpec):
    """B_K(u, w) at every stored node; nonnegative for u = w."""
    scheme, tu, tw = _tables(u, w, kernel)
    corr = _correlator(scheme.weights, tu.E.shape[:-1], u.grid.periodic)
    return _bilinear(u, w, scheme, tu, tw, corr)


def bilinear_form(u: SampledField, w: SampledField, kernel: KernelSpec, x) -> float:
    idx = _interior_node_index(u, x)
    scheme, tu, tw = _tables(u, w, kernel)
    corr = _correlator(scheme.weights, tu.E.shape[:-1], u.grid.periodic, idx)
    vals, _ = _bilinear(u, w, scheme, tu, tw, corr, idx)
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
    ends in the domain come in twice at half weight; W being even, their
    sum, the interior part, is (1/2) h^n sum_domain u (u W*chi - W*(chi u)),
    chi the interior indicator, and the tail is the rest.  On the torus
    W*chi = S, so the interior part is the whole energy, (1/2) <u, -L u>,
    as is the total in free space for zero exterior data."""
    grid = u.grid
    scheme, t, _ = _tables(u, u, make_fractional_kernel(grid.dim, s))
    corr = _correlator(scheme.weights, t.E.shape[:-1], grid.periodic)
    inside = grid.interior_mask()
    hvol = grid.h**grid.dim
    if grid.periodic:
        chi, Wchi = 1.0, float(np.sum(scheme.weights))
    else:
        chi = np.pad(inside, scheme.weights.shape[0] // 2).astype(float)
        Wchi = corr(chi)
    pairs = sum(t.v[..., c] * (t.v[..., c] * Wchi - corr(chi * t.E[..., c]))
                for c in range(u.m))
    interior = 0.5 * hvol * float(np.sum(pairs[inside]))
    if grid.periodic:
        return EnergyValue(interior, 0.0, 0.0)
    B, est = _bilinear(u, u, scheme, t, t, corr)
    total = hvol * float(np.sum(B[inside]))
    est = hvol * int(np.count_nonzero(inside)) * est
    return EnergyValue(interior, total - 2.0 * interior, est)


# -- spectral oracle -----------------------------------------------------------


def _spectral_multiply(grid: GridSpec, symbol, v: np.ndarray) -> np.ndarray:
    """The Fourier multiplier symbol(k_1, ..., k_dim), even in k, applied to
    the scalar values v of a periodic grid on the real FFT's half spectrum;
    k_i are the frequencies along axis i, broadcast against each other.  As
    in the real part of a complex product, it is the mean of the symbol at
    the frequencies of index i and the negated ones of -i, which differ at
    an index n/2 of an even n (the frequencies -n/2 and n/2 at once)."""
    n = grid.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / grid.period)
    spectrum = 0.0
    for freq in (k, -k[-np.arange(n) % n]):
        ks = np.meshgrid(*[freq] * (grid.dim - 1), freq[: n // 2 + 1], indexing="ij",
                         sparse=True)
        spectrum = spectrum + 0.5 * symbol(*ks)
    return _fft_product(v, spectrum, grid.shape, tuple(range(grid.dim)), grid.shape)


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


# -- the interior operator ------------------------------------------------------


_CG_RTOL = 1e-13


def _cg(matvec, precondition, b: np.ndarray, condition_estimate: float):
    """Preconditioned conjugate gradients for A x = b on all columns of b at
    once, from x = 0 (Hestenes & Stiefel 1952; Concus, Golub & O'Leary 1976):
    precondition is z = M^(-1) r for a symmetric positive definite M.  Stops
    when the unpreconditioned residual has ||r_j||_2 <= 1e-13 ||b_j||_2 for
    every column j; a column that gets there keeps its x while the others go
    on.  Each column runs scaled by a power of two that brings its max below 1,
    which is exact, so the squared norms cannot overflow for any finite b.
    Returns (x, iterations).  SolverError, carrying the iteration count
    and condition_estimate, on breakdown (p.Ap <= 0: A is not positive
    definite) or when n (the number of unknowns) iterations do not reach the
    tolerance."""
    if not np.all(np.isfinite(b)):
        raise SolverError("right-hand side of the interior system is not finite",
                          condition_estimate=condition_estimate)
    r = b.reshape(b.shape[0], -1)
    _, e = np.frexp(np.max(np.abs(r), axis=0))
    r = np.ldexp(r, -e)
    x = np.zeros_like(r)
    p = z = precondition(r)
    rr = np.sum(r * r, axis=0)
    rz = np.sum(r * z, axis=0)
    goal = _CG_RTOL**2 * rr
    k = 0
    while True:
        active = rr > goal
        if not np.any(active):
            return np.ldexp(x, e).reshape(b.shape), k
        if k == r.shape[0]:
            raise SolverError(f"conjugate gradients did not converge in {k} iterations",
                              iterations=k, condition_estimate=condition_estimate)
        Ap = matvec(p)
        pAp = np.sum(p * Ap, axis=0)
        if np.any(pAp[active] <= 0.0):
            raise SolverError("interior system is not positive definite",
                              iterations=k, condition_estimate=condition_estimate)
        alpha = np.divide(rz, pAp, out=np.zeros_like(rz), where=active)
        x += alpha * p
        r -= alpha * Ap
        z = precondition(r)
        rr = np.sum(r * r, axis=0)
        rz_next = np.sum(r * z, axis=0)
        p = z + np.divide(rz_next, rz, out=np.zeros_like(rz), where=active) * p
        rz = rz_next
        k += 1


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Matrix-free interior form of -L_K with exterior data folded into a load:

        (-L u)(interior nodes) = A @ u_interior - load,
        A = diagonal * I - (W * .) restricted to the interior nodes.

    A is symmetric positive definite (M-matrix: positive diagonal, negative
    off-diagonal, strictly dominant through the weights that reach beyond
    the ball).  It is never stored.  The interior values are placed in their
    bounding box (box, with box_mask marking the interior in it, all true
    where the interior fills the box, as in 1-d), zero-padded to fft_shape, and
    multiplied by a circulant there: symbol is the real FFT of the weights
    cropped to offsets inside the box, wrapped onto fft_shape with the zero
    offset at index 0 (the weights are even and hold 0 at the zero offset,
    so the transform is real).  matvec is diagonal * x minus the circulant
    circ(symbol); as fft_shape is at least 2 box - 1, nothing wraps onto the
    box.  precondition applies circ(1 / (diagonal - symbol)), the inverse of
    the whole-torus operator C = diagonal - circ(symbol) (T. Chan 1988;
    Minden & Ying 2020), restricted to the interior: R C^(-1) R^T is
    symmetric positive definite because diagonal - symbol >= diagonal -
    offdiag_sum > 0.  offdiag_sum, the sum of the cropped weights, bounds
    every row's off-diagonal sum and so gives the Gershgorin
    condition_estimate.

    interior_flat indexes the interior nodes in the flattened grid; data, the
    field folded into load, is 0 on them and the rule, evaluated once, on
    every other node; hvol is the node volume, for the quadratic energy.
    Every interior solve goes through solve (preconditioned conjugate
    gradients, returning the iteration count with the solution); field
    writes interior values into data.  A is gathered only as the oracle."""

    grid: GridSpec
    kernel: KernelSpec
    data: SampledField
    diagonal: float
    load: np.ndarray
    interior_flat: np.ndarray
    hvol: float
    truncation_estimate: float
    box: tuple
    box_mask: np.ndarray
    symbol: np.ndarray
    fft_shape: tuple
    offdiag_sum: float

    @property
    def A(self) -> np.ndarray:
        """The dense n_interior x n_interior matrix, gathered from the weights a
        block of rows at a time on every access: A[r, c] = -W[x_c - x_r] off
        the diagonal.  No solve reads it: it is the tests' oracle."""
        W = scheme_for(self.kernel, self.grid).weights
        nodes = np.unravel_index(self.interior_flat, self.grid.shape)
        off = np.ravel_multi_index(nodes, W.shape)
        n = off.size
        A = np.empty((n, n))
        for r in range(0, n, 64):
            A[r : r + 64] = -W.ravel()[off[None, :] - off[r : r + 64, None] + W.size // 2]
        np.fill_diagonal(A, self.diagonal)
        return A

    @property
    def condition_estimate(self) -> float:
        """Gershgorin bound (d + o)/(d - o) on the condition number, with
        d = |diagonal| and o = offdiag_sum; O(1) once assembled."""
        d, o = abs(self.diagonal), self.offdiag_sum
        return (d + o) / (d - o) if d > o else float("inf")

    def _circulant(self, x: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
        """The circulant with the given real Fourier multiplier on fft_shape,
        applied to x (n_interior,) or (n_interior, m) placed in the box and
        restricted back to the interior; every column in one real-FFT
        transform pair, whose inverse transforms only the rows of the box."""
        X = x.reshape(x.shape[0], -1).T
        axes = tuple(range(1, len(self.box) + 1))
        f = np.zeros((X.shape[0], *self.box))
        f[:, self.box_mask] = X
        g = _fft_product(f, multiplier, self.fft_shape, axes, self.box)
        return g[:, self.box_mask].T.reshape(x.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for x of shape (n_interior,) or (n_interior, m)."""
        return self.diagonal * x - self._circulant(x, self.symbol)

    def precondition(self, r: np.ndarray, tau=None, c: float = 0.0) -> np.ndarray:
        """R C^(-1) R^T r: the inverse of the whole-torus circulant
        C = circ(S), S = diagonal - symbol + c, or of circ(1 + tau S) when tau
        is given (the flows' implicit steps), through the same embedding and
        restriction as matvec; symmetric positive definite for c, tau >= 0."""
        S = self.diagonal - self.symbol + c
        return self._circulant(r, 1.0 / (S if tau is None else 1.0 + tau * S))

    def apply_neg_lk(self, u_int: np.ndarray) -> np.ndarray:
        return self.matvec(u_int) - self.load

    def solve(self, b: np.ndarray):
        """(A^(-1) b, iterations) by preconditioned conjugate gradients on all
        columns of b at once (see _cg); SolverError when A is not positive
        definite or CG stalls."""
        return _cg(self.matvec, self.precondition, b, self.condition_estimate)

    def inverse_norm_bound(self) -> float:
        """Upper bound on ||A^(-1)||_inf.  A is an M-matrix, so A^(-1) >= 0 and
        ||A^(-1)||_inf = max(A^(-1) 1).  With v from a PCG solve of A v = 1
        and rho = ||1 - A v||_inf, A^(-1) 1 = v + A^(-1)(1 - A v) gives
        ||A^(-1)||_inf <= max(v) / (1 - rho); inf when rho >= 1.  Calls
        matvec directly, never solve."""
        ones = np.ones(self.interior_flat.size)
        v, _ = _cg(self.matvec, self.precondition, ones, self.condition_estimate)
        rho = float(np.max(np.abs(ones - self.matvec(v))))
        return float(np.max(v)) / (1.0 - rho) if rho < 1.0 else float("inf")

    def field(self, u_int: np.ndarray, bound=None) -> SampledField:
        """u_int (n_interior, m) on the interior nodes, the assembly's exterior
        data on every other node; DomainError for any other shape."""
        vals = self.data.values.copy()
        shape = (self.interior_flat.size, vals.shape[-1])
        if np.shape(u_int) != shape:
            raise DomainError(f"interior values of shape {np.shape(u_int)}; "
                              f"the operator takes {shape}")
        vals.reshape(-1, shape[1])[self.interior_flat] = u_int
        return SampledField(self.grid, vals, self.data.exterior, bound)

    def energy_quadratic(self, u_int: np.ndarray) -> float:
        """(1/2) <u, -L u> h^n up to a u-independent constant; tracks the
        order-s energy along flows on a fixed grid."""
        return self.hvol * (0.5 * float(np.sum(u_int * self.matvec(u_int)))
                            - float(np.sum(u_int * self.load)))


# interior solves stop here until a benchmark workload covers larger grids;
# the dense oracle A is checked against up to this size
_DENSE_CAP = 6000


def assemble_dirichlet(kernel: KernelSpec, grid: GridSpec, rule: ExteriorRule,
                       m: int = 1) -> AssembledOperator:
    """-L_K on the interior nodes of the grid ball with the given exterior rule
    supplying all data outside, matrix-free.  Stores the diagonal (the
    scheme's, tail mass included, when the rule has a far limit; the sum of
    the weights otherwise), the interior's bounding box with its mask, and
    the real symbol of the weights cropped to the box, which drives both
    the matvec and the circulant preconditioner.  The load is L_K of the
    exterior data alone (zero on the interior nodes), through the same
    padded table, tail and truncation estimate as every other evaluation.
    DomainError past _DENSE_CAP unknowns; SolverError when the
    preconditioner's symbol diagonal - symbol is not positive."""
    if grid.periodic:
        raise DomainError("Dirichlet assembly needs a free-space grid")
    scheme = scheme_for(kernel, grid)
    W = scheme.weights
    inside = grid.interior_mask()
    interior_flat = np.flatnonzero(inside)
    n_int = interior_flat.size
    if n_int > _DENSE_CAP:
        raise DomainError(f"interior operator capped at {_DENSE_CAP} unknowns")
    # the interior's bounding box, and the weights at offsets |k_i| <= L_i - 1:
    # every pair of interior nodes is that close, and a transform of size
    # 2 L_i - 1 keeps the circulant product on the box free of wrap-around
    nodes = np.argwhere(inside)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0) + 1
    box = tuple(int(n) for n in hi - lo)
    box_mask = inside[tuple(slice(a, b) for a, b in zip(lo, hi))]
    c = W.shape[0] // 2
    crop = W[tuple(slice(c - n + 1, c + n) for n in box)]  # W[0] is 0
    fft_shape = tuple(next_fast_len(2 * n - 1, real=True) for n in box)
    # the crop zero-padded to fft_shape and rolled so the zero offset sits at
    # index 0 and offset k at k mod fft_shape: even, so its transform is real
    wrapped = np.roll(np.pad(crop, [(0, f - (2 * n - 1)) for f, n in zip(fft_shape, box)]),
                      [1 - n for n in box], axis=tuple(range(grid.dim)))
    symbol = np.fft.rfftn(wrapped).real.copy()  # not a view holding the complex array
    diagonal = scheme.diagonal() if rule.limit is not None else float(np.sum(W))
    if float(np.min(diagonal - symbol)) <= 0.0:  # some weight is negative
        raise SolverError("the circulant preconditioner is not positive definite",
                          condition_estimate=float("inf"))
    vals = np.zeros((*grid.shape, m))
    vals[~inside] = _rule_values(rule, grid.points()[~inside], m)
    data = SampledField(grid, vals, rule)
    load, est = _apply(data, kernel)
    return AssembledOperator(grid, kernel, data, diagonal,
                             load.reshape(-1, m)[interior_flat], interior_flat,
                             grid.h**grid.dim, est, box, box_mask, symbol,
                             fft_shape, float(np.sum(crop)))
