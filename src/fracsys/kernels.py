"""Symmetric jump kernels of fractional order 2s.

A kernel K is admissible between ellipticity constants ``lam <= Lam`` when it
is even, K(y) = K(-y), and pointwise comparable to the fractional kernel:

    (1 - s) * lam * |y|^(-(n+2s))  <=  K(y)  <=  (1 - s) * Lam * |y|^(-(n+2s))

for every y != 0.  The module builds the three supported kinds (isotropic
fractional, anisotropic through an invertible matrix A, and custom radial
profiles), computes the normalization that gives the isotropic operator the
exact Fourier symbol |xi|^(2s), and audits the admissibility bounds on sample
point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma

from .errors import DomainError

__all__ = [
    "KernelSpec",
    "normalization_constant",
    "normalization_limit",
    "make_fractional_kernel",
    "make_anisotropic_kernel",
    "make_custom_kernel",
    "kernel_bounds_check",
]


def normalization_constant(n: int, s: float) -> float:
    """Constant c making c * |y|^(-(n+2s)) the kernel of an operator with
    Fourier symbol exactly |xi|^(2s).

    Closed form: ``s * (1-s) * 4^s * Gamma(n/2 + s) / (pi^(n/2) * Gamma(2-s))``.
    It factors as (1-s) times a function of s that stays bounded as s -> 1,
    which is what makes the operator converge to the classical Laplacian in
    that limit.  Positive and continuous on 0 < s < 1.
    """
    if not 0.0 < s < 1.0:
        raise DomainError(f"order parameter out of range: s={s}")
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return float(
        s * (1.0 - s) * 4.0**s * gamma(n / 2.0 + s) / (np.pi ** (n / 2.0) * gamma(2.0 - s))
    )


def normalization_limit(n: int) -> float:
    """Limit of normalization_constant(n, s) / (1-s) as s -> 1."""
    return float(4.0 * gamma(n / 2.0 + 1.0) / np.pi ** (n / 2.0))


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of an admissible symmetric kernel.

    Attributes
    ----------
    kind : str
        One of "fractional", "anisotropic", "custom".
    s : float
        Order parameter in (0, 1); the operator has order 2s.
    dim : int
        Spatial dimension n.
    lam, Lam : float
        Lower/upper ellipticity constants of the two-sided bound.
    matrix : tuple of tuples, optional
        Invertible matrix A for the anisotropic kind,
        K(z) = c_{n,s} / (det A * |A^{-1} z|^(n+2s)).
    profile : callable, optional
        Radial profile r -> K(r) for the custom kind, evaluated lazily at
        quadrature nodes.  Must satisfy the declared (lam, Lam) bounds.

    Instances are frozen; sharing one spec across concurrent evaluators is
    safe, and every operation built on it is a pure function.
    """

    kind: str
    s: float
    dim: int
    lam: float
    Lam: float
    matrix: Optional[tuple] = None
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"order parameter out of range: s={self.s}")
        if self.dim < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dim}")
        if not 0.0 < self.lam <= self.Lam:
            raise DomainError(f"need 0 < lam <= Lam, got lam={self.lam}, Lam={self.Lam}")
        if self.kind not in ("fractional", "anisotropic", "custom"):
            raise DomainError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "anisotropic" and self.matrix is None:
            raise DomainError("anisotropic kernel requires a matrix")
        if self.kind == "custom" and self.profile is None:
            raise DomainError("custom kernel requires a radial profile")

    # -- derived quantities -------------------------------------------------

    @property
    def c_ns(self) -> float:
        """Normalization c_{n,s} = (1-s) * c_n of the fractional kernel."""
        return normalization_constant(self.dim, self.s)

    @property
    def singularity_order(self) -> float:
        return self.dim + 2.0 * self.s

    @property
    def A(self) -> Optional[np.ndarray]:
        if self.matrix is None:
            return None
        return np.asarray(self.matrix, dtype=float)

    # -- evaluation ---------------------------------------------------------

    def at_norm2(self, r2) -> np.ndarray:
        """K at points y with |A^{-1} y|^2 = r2 (A = I without a matrix):
        the profile at sqrt(r2) for the custom kind, c_{n,s} / (det A *
        r2^((n+2s)/2)) for the power-law kinds."""
        r2 = np.asarray(r2, dtype=float)
        if self.kind == "custom":
            return np.asarray(self.profile(np.sqrt(r2)), dtype=float)
        det = 1.0 if self.A is None else abs(float(np.linalg.det(self.A)))
        return self.c_ns / det * r2 ** (-0.5 * self.singularity_order)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Evaluate K at points y (shape (..., dim) or (...,) when dim=1).

        Every kind is evaluated through at_norm2 of |A^{-1} y|^2 only, so
        K(y) == K(-y) holds bit for bit (A^{-1}(-y) = -A^{-1}y exactly).
        """
        y = np.asarray(y, dtype=float)
        if self.A is not None:
            y = (y / self.A[0, 0] if self.dim == 1
                 else np.tensordot(y, np.linalg.inv(self.A).T, axes=([-1], [0])))
        r2 = y * y if self.dim == 1 else np.sum(y * y, axis=-1)
        if np.any(r2 == 0.0):
            raise DomainError("kernel evaluated at the origin")
        return self.at_norm2(r2)

    def is_power_law(self) -> bool:
        return self.kind in ("fractional", "anisotropic")


def make_fractional_kernel(n: int, s: float) -> KernelSpec:
    """Isotropic kernel c_{n,s} |y|^(-(n+2s)) of order 2s in dimension n.

    Both ellipticity constants equal c_n = c_{n,s}/(1-s), so the two-sided
    admissibility bound holds with equality at every point.
    """
    c_n = normalization_constant(n, s) / (1.0 - s)
    return KernelSpec(kind="fractional", s=s, dim=n, lam=c_n, Lam=c_n)


def make_anisotropic_kernel(A, s: float) -> KernelSpec:
    """Kernel K(z) = c_{n,s} / (det A * |A^{-1} z|^(n+2s)) for invertible A.

    The ellipticity constants come from the extreme singular values of A:
    |A^{-1}z|/|z| ranges over [1/sigma_max, 1/sigma_min], hence

        lam = c_n * sigma_min^(n+2s) / det A,
        Lam = c_n * sigma_max^(n+2s) / det A.

    A pure rotation gives lam = Lam = c_n and the isotropic kernel back.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    n = A.shape[0]
    det = np.linalg.det(A)
    if abs(det) < 1e-300:
        raise DomainError("matrix is singular")
    sv = np.linalg.svd(A, compute_uv=False)
    c_n = normalization_constant(n, s) / (1.0 - s)
    p = n + 2.0 * s
    lam = c_n * float(np.min(sv)) ** p / abs(det)
    Lam = c_n * float(np.max(sv)) ** p / abs(det)
    matrix = tuple(tuple(float(v) for v in row) for row in A)
    return KernelSpec(kind="anisotropic", s=s, dim=n, lam=lam, Lam=Lam, matrix=matrix)


def make_custom_kernel(profile, s: float, n: int, lam: float, Lam: float) -> KernelSpec:
    """Wrap a radial profile r -> K(r) as an admissible kernel.

    The caller declares the (lam, Lam) constants; kernel_bounds_check audits
    them on sample sets.
    """
    return KernelSpec(kind="custom", s=s, dim=n, lam=lam, Lam=Lam, profile=profile)


def kernel_bounds_check(kernel: KernelSpec, samples) -> dict:
    """Audit symmetry and the two-sided admissibility bound on a sample set.

    Parameters
    ----------
    kernel : KernelSpec
    samples : array of points, shape (k, dim) (or (k,) in 1-d), origin excluded.

    Returns
    -------
    dict with keys
        ``symmetric``     K(y) == K(-y) at every sample (exact comparison),
        ``within_bounds`` both bound inequalities hold up to 1e-12 relative,
        ``worst_ratio``   max over samples of K(y)|y|^(n+2s) / ((1-s) Lam)
                          and of (1-s) lam / (K(y)|y|^(n+2s)); equals 1 when
                          the bounds are tight.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise DomainError("empty sample set")
    if kernel.dim == 1:
        pts = pts.reshape(-1)
        r = np.abs(pts)
    else:
        pts = pts.reshape(-1, kernel.dim)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
    if np.any(r == 0.0):
        raise DomainError("samples must exclude the origin")
    k_pos = kernel(pts)
    k_neg = kernel(-pts)
    symmetric = bool(np.array_equal(k_pos, k_neg))
    scaled = k_pos * r ** kernel.singularity_order / (1.0 - kernel.s)
    upper_ratio = scaled / kernel.Lam
    lower_ratio = kernel.lam / scaled
    worst = float(max(np.max(upper_ratio), np.max(lower_ratio)))
    within = bool(worst <= 1.0 + 1e-12)
    return {"symmetric": symmetric, "within_bounds": within, "worst_ratio": worst}
