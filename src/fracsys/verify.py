"""Executable closed-form checks: the square identity, the one-dimensional
step-function equation, the step-sign algebra, and the second-order limits of
the operators as s approaches 1 (isotropic and anisotropic)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fields import GridSpec, SampledField, field_from_function, sign_rule
from .kernels import KernelSpec, make_anisotropic_kernel, make_fractional_kernel
from .operators import _spectral_multiply, apply_LK_field, bilinear_form_field
from .solvers import _el_residual

__all__ = [
    "SmoothedSign",
    "LimitReport",
    "square_identity_check",
    "sign_algebra_check",
    "counterexample_residual",
    "s_limit_isotropic",
    "s_limit_anisotropic",
]


@dataclass(frozen=True)
class SmoothedSign:
    """Odd monotone regularization of the step function: equals the sign
    outside (-1/n, 1/n) and the quintic (15 t - 10 t^3 + 3 t^5)/8, t = n x,
    inside.  Value and two derivatives match at the seams, |profile| <= 1."""

    n_smooth: int

    def __post_init__(self):
        if self.n_smooth < 1:
            raise DomainError("smoothing index must be a positive integer")

    def profile(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip(self.n_smooth * x, -1.0, 1.0)
        return 0.125 * t * (15.0 - 10.0 * t * t + 3.0 * t**4)

    def as_field(self, grid: GridSpec) -> SampledField:
        if grid.dim != 1:
            raise DomainError("the smoothed step lives in one dimension")
        if grid.h > 0.5 / self.n_smooth + 1e-12:
            raise DomainError("grid does not resolve the smoothing interval")
        return field_from_function(grid, lambda p: self.profile(p[:, 0]),
                                   sign_rule(), m=1, bound=1.0)


def square_identity_check(v: SampledField, kernel: KernelSpec) -> float:
    """Largest interior-node residual of

        -L(v^2) + 2 v L v + 2 B(v, v)

    relative to the size of its three terms.  v^2 takes v's exterior rule
    mapped through the square, so a constant far field (sign, constant)
    keeps its closed-form tail.  The terms cancel per quadrature node in
    exact arithmetic, so this is a rounding-level quantity (that of the FFT
    correlations) on every admissible kernel and grid."""
    if v.m != 1:
        raise DomainError("square_identity_check expects a scalar field")
    vsq = SampledField(v.grid, np.asarray(v.values) ** 2,
                       v.exterior.mapped(lambda g: g**2, 1), None)
    l_vsq, _ = apply_LK_field(vsq, kernel)
    l_v, _ = apply_LK_field(v, kernel)
    b_vv, _ = bilinear_form_field(v, v, kernel)
    vv = np.asarray(v.values)[..., 0]
    term1 = -l_vsq[..., 0]
    term2 = 2.0 * vv * l_v[..., 0]
    term3 = 2.0 * b_vv
    mask = v.grid.interior_mask()
    resid = np.abs(term1 + term2 + term3)[mask]
    scale = max(float(np.max(np.abs(term1[mask]))),
                float(np.max(np.abs(term2[mask]))),
                float(np.max(np.abs(term3[mask]))), 1e-300)
    return float(np.max(resid)) / scale


def sign_algebra_check(x: float, y: float) -> bool:
    """Exact step-sign algebra at a pair of nonzero reals:

        (sgn x - sgn y)^2        == 2 sgn x (sgn x - sgn y)
        sgn x (sgn x - sgn y)^2  == 2 (sgn x - sgn y)

    Both forms hold for every sign pattern; the variant with the extra sign
    factor on only one side mixes them up and fails at (x < 0, y > 0)."""
    if x == 0 or y == 0:
        raise DomainError("arguments must be nonzero")
    px = 1 if x > 0 else -1
    py = 1 if y > 0 else -1
    d = px - py
    return (d * d == 2 * px * d) and (px * d * d == 2 * d)


def counterexample_residual(n_smooth: int, s: float, band) -> float:
    """Largest residual of (-Delta)^s u - u B(u, u) for the smoothed step
    over the nodes with |x| in [r_min, r_max], on the grid h = 1/(8 n) of
    radius 1.5.

    Where the smoothed step phi equals +-1 (|x| >= 1/n) the residual is
    exactly (c/2) * integral over (-1/n, 1/n) of (1 - phi(y)^2) K(x - y) dy,
    since c int (1 - phi) K - (c/2) int (1 - phi)^2 K = (c/2) int (1 - phi^2) K.
    This is the kernel mass of the smoothing zone, not a discretization
    error: it is O(1/n) and vanishes as n grows, but at a fixed n no grid
    brings it below this value (~5e-2 for s = 1/2 at |x| = 0.2, n = 64).

    The band must stay clear of the smoothing interval (-1/n, 1/n); there the
    quadratic form diverges as the smoothing refines and the residual is not
    meaningful."""
    r_min, r_max = band
    step = SmoothedSign(n_smooth)
    grid = GridSpec(dim=1, h=1.0 / (8.0 * n_smooth), radius=1.5)
    if r_min <= 1.0 / n_smooth + 2.0 * grid.h:
        raise DomainError("band intersects the smoothing interval")
    if r_max >= grid.radius:
        raise DomainError("band leaves the interior ball")
    u = step.as_field(grid)
    resid = np.abs(_el_residual(u, s)[..., 0])
    r = np.abs(grid.axis())
    sel = (r >= r_min - 1e-12) & (r <= r_max + 1e-12)
    return float(np.max(resid[sel]))


@dataclass(frozen=True)
class LimitReport:
    """Max-norm deviations from the local (second-order) operator per probed
    s, and the log-log slope of the error against (1 - s)."""

    s_values: tuple
    errors: tuple
    fitted_rate: float


def _limit(v: SampledField, kernel_for, symbol, s_values) -> LimitReport:
    """Max-norm deviation of L_K v, K = kernel_for(s), from the multiplier
    symbol applied to v, per s, and its log-log slope against (1 - s)."""
    target = _spectral_multiply(v.grid, symbol, np.asarray(v.values)[..., 0])
    errors = []
    for s in s_values:
        op, _ = apply_LK_field(v, kernel_for(s))
        errors.append(float(np.max(np.abs(op[..., 0] - target))))
    rate = float("nan")
    if len(s_values) >= 2:
        x = np.log(1.0 - np.asarray(s_values, dtype=float))
        rate = float(np.polyfit(x, np.log(np.maximum(errors, 1e-300)), 1)[0])
    return LimitReport(tuple(s_values), tuple(errors), rate)


def s_limit_isotropic(v: SampledField, s_values) -> LimitReport:
    """Deviation of -(-Delta)^s v from the classical Laplacian of a smooth
    periodic field, for each s; the error should scale like (1 - s) once the
    grid term is subdominant."""
    if not v.grid.periodic or v.m != 1:
        raise DomainError("s_limit_isotropic expects a scalar periodic field")
    return _limit(v, lambda s: make_fractional_kernel(v.grid.dim, s),
                  lambda *k: -sum(kk**2 for kk in k), s_values)


def s_limit_anisotropic(v: SampledField, A, s_values) -> LimitReport:
    """Deviation of L_K v (anisotropic kernel built from A) from the local
    operator sum_ij (A A^t)_ij d_ij v on a smooth periodic field."""
    if not v.grid.periodic or v.m != 1 or v.grid.dim != 2:
        raise DomainError("s_limit_anisotropic expects a scalar periodic 2-d field")
    A = np.asarray(A, dtype=float)
    a = A @ A.T

    def symbol(k1, k2):
        return -(a[0, 0] * k1**2 + 2.0 * a[0, 1] * k1 * k2 + a[1, 1] * k2**2)

    return _limit(v, lambda s: make_anisotropic_kernel(A, s), symbol, s_values)
