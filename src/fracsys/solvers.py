"""Solvers: linear Dirichlet problems, sphere-constrained gradient flow, and
the penalized (Ginzburg-Landau style) relaxation.

Conventions
-----------
The linear problem is posed as  -L_K v = rhs  in the grid ball, v given by the
exterior rule outside.  The interior operator is a symmetric M-matrix, so the
discrete maximum principle holds exactly: nonpositive data forces a
nonpositive solution.  It is solved matrix-free by conjugate gradients
preconditioned with the inverse of the same operator on a periodic box (a
circulant, applied by FFT), and the M-matrix structure turns the final
residual into a bound on the error.

The constrained flow iterates  u <- project(u - step * (-Delta)^s u)  with
nodewise radial projection to the unit sphere, starting from the radial
projection of the componentwise linear extension of the exterior data.  The
relaxed flow replaces the projection by the penalty reaction
(1/eps) (1 - |v|^2) v, integrated implicitly so the step stays
diffusion-limited.

Solvers are single-threaded state machines over immutable field snapshots;
each iteration produces a new snapshot and the report is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SolverError
from .fields import ExteriorRule, GridSpec, SampledField, zero_rule
from .kernels import KernelSpec, make_fractional_kernel
from .operators import (AssembledOperator, apply_fractional_laplacian_field,
                        assemble_dirichlet, bilinear_form_field, s_energy)

__all__ = [
    "LinearProblem",
    "SolveReport",
    "GLConfig",
    "solve_linear_dirichlet",
    "gradient_flow_s_harmonic",
    "ginzburg_landau_solve",
    "euler_lagrange_residual",
    "default_flow_step",
]


@dataclass(frozen=True)
class LinearProblem:
    """-L_K v = rhs in the grid ball, v = exterior rule outside.

    rhs is a scalar, or a callable points -> values on interior nodes.
    """

    kernel: KernelSpec
    grid: GridSpec
    rhs: object
    exterior: ExteriorRule

    def rhs_values(self, points: np.ndarray) -> np.ndarray:
        if callable(self.rhs):
            out = np.asarray(self.rhs(points), dtype=float).reshape(-1)
        else:
            out = np.full(points.shape[0], float(self.rhs))
        if not np.all(np.isfinite(out)):
            raise DomainError("right-hand side must be finite")
        return out


@dataclass(frozen=True)
class SolveReport:
    """Convergence metadata: iteration count (CG iterations for linear
    solves, steps for flows), final residual (max norm), energy trace for
    flows, worst sphere-constraint violation, the truncation-error estimate
    inherited from the quadrature, and for linear solves a bound on the max
    norm of the error against the exact discrete solution (None for flows)."""

    iterations: int
    final_residual: float
    energy_trace: tuple = ()
    constraint_violation: float = 0.0
    truncation_estimate: float = 0.0
    error_bound: Optional[float] = None


@dataclass(frozen=True)
class GLConfig:
    """Relaxation parameters: penalty strength epsilon, order s, the step
    budget and the residual tolerance.  The pseudo-time step is always the
    diffusion-limited default_flow_step."""

    epsilon: float
    s: float
    max_steps: int = 20000
    tol: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"order parameter out of range: s={self.s}")


def solve_linear_dirichlet(problem: LinearProblem):
    """Preconditioned conjugate-gradient solve of the interior system
    A x = b; returns (field, report).  The report's iterations is the PCG
    count and its error_bound the certificate
    ||x - x*||_inf <= ||A^(-1)||_inf ||b - A x||_inf, with ||A^(-1)||_inf
    bounded by AssembledOperator.inverse_norm_bound."""
    op = assemble_dirichlet(problem.kernel, problem.grid, problem.exterior, m=1)
    pts = problem.grid.points().reshape(-1, problem.grid.dim)
    rhs = problem.rhs_values(pts[op.interior_flat])
    b = rhs[:, None] + op.load
    sol = op.solve(b)
    resid = float(np.max(np.abs(b - op.matvec(sol))))
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    if not np.all(np.isfinite(sol)) or resid > 1e-6 * max(scale, 1.0) * sol.shape[0]:
        raise SolverError("ill-conditioned interior system",
                          condition_estimate=op.condition_estimate)
    bound = op.inverse_norm_bound() * resid if resid > 0.0 else 0.0
    report = SolveReport(iterations=op.solve_iterations[-1], final_residual=resid / scale,
                         truncation_estimate=op.truncation_estimate, error_bound=bound)
    return op.field(sol), report


def default_flow_step(kernel: KernelSpec, grid: GridSpec,
                      op: AssembledOperator) -> float:
    """Explicit step: half of h^(2s)/Lam, capped at 0.9/diag.

    The linear part is stable up to 2/diag, but the nodewise projection can
    push energy upward near that edge; 0.9/diag keeps the flow dissipative
    with margin across the whole order range."""
    diag = op.diagonal
    return min(0.5 * grid.h ** (2.0 * kernel.s) / kernel.Lam, 0.9 / diag)


def _check_unit_exterior(rule: ExteriorRule, grid: GridSpec, m: int):
    rng = np.random.default_rng(7)
    radii = grid.radius * (1.0 + 3.0 * rng.random((64, 1)))
    dirs = rng.normal(size=(64, grid.dim))
    g = rule.values(radii * (dirs / np.linalg.norm(dirs, axis=1, keepdims=True)), m)
    mag = np.sqrt(np.sum(g * g, axis=-1))
    if np.max(np.abs(mag - 1.0)) > 1e-8:
        raise DomainError("exterior data must be unit length")


def _project_sphere(w: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
    bad = np.nonzero(norms[..., 0] < 1e-12)[0]
    if bad.size:
        raise SolverError("projection of a (near) zero vector",
                          node_index=int(bad[0]))
    return w / norms


def _sphere_flow(grid: GridSpec, g: ExteriorRule, s: float, m: int,
                 tau: Optional[float], steps: int, tol: float,
                 residual, advance, penalty, bound):
    """The explicit flow u <- advance(u - tau (-Delta)^s u, tau) from the
    radial projection of the linear extension of the unit data g.

    Each step makes one matvec F = A u - load.  It gives the stopping
    residual residual(u, F) and the energy of u, because
    (1/2) u.Au - u.load = (1/2) u.(F - load); penalty(u) is added to it.
    Stops when the residual falls below tol relative to its first value (or
    to the rounding scale of the operator) or after `steps` steps; aborts if
    the energy rises on three consecutive steps.  Returns (field, report).
    """
    kernel = make_fractional_kernel(grid.dim, s)
    _check_unit_exterior(g, grid, m)
    op = assemble_dirichlet(kernel, grid, g, m=m)
    diag = op.diagonal
    tau = default_flow_step(kernel, grid, op) if tau is None else tau
    if tau * diag >= 2.0:
        raise DomainError("step size exceeds the explicit stability bound")
    extension = op.solve(op.load)
    try:
        u = _project_sphere(extension)
    except SolverError as exc:
        # degree-one data (radial_projection) do this by symmetry
        node = exc.diagnostics["node_index"]
        raise SolverError(
            f"the linear extension of the exterior data vanishes at interior "
            f"node {node}, so the flow has no start on the sphere there",
            node_index=node) from exc
    # calibrate the additive constant once so the trace reports true energies
    e0 = s_energy(op.field(u), s).total
    floor = 1e-13 * diag  # rounding scale of the operator
    trace, resid0, resid, rising, k = [], None, np.inf, 0, 0
    while True:
        F = op.apply_neg_lk(u)
        quadratic = 0.5 * op.hvol * float(np.sum(u * (F - op.load)))
        if not trace:
            offset = e0 - quadratic
        trace.append(quadratic + offset + penalty(u))
        if len(trace) > 1 and trace[-1] > trace[-2] + 1e-12 * (abs(trace[0]) + 1.0):
            rising += 1
            if rising >= 3:
                raise SolverError("energy increased on three consecutive steps",
                                  step=tau, trace_tail=tuple(trace[-4:]))
        else:
            rising = 0
        if k == steps:
            break
        k += 1
        resid = residual(u, F)
        if resid0 is None:
            resid0 = max(resid, 1e-300)
        if resid <= tol * resid0 or resid <= floor:
            break
        u = advance(u - tau * F, tau)
    violation = float(np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)))
    report = SolveReport(iterations=k, final_residual=resid,
                         energy_trace=tuple(trace),
                         constraint_violation=violation,
                         truncation_estimate=op.truncation_estimate)
    return op.field(u, bound), report


def gradient_flow_s_harmonic(grid: GridSpec, g: ExteriorRule, s: float,
                             m: int = 2, steps: int = 20000,
                             step_size: Optional[float] = None,
                             tol: float = 1e-6):
    """Projected gradient flow for sphere-valued critical points of the
    order-s energy with unit exterior data g.

    Stops when the tangential residual |(-Delta)^s u - u (u . (-Delta)^s u)|
    falls below tol relative to its initial value, or the step budget runs
    out.  Aborts if the energy rises three steps in a row (step too large).
    Returns (field, report); the energy trace lists the order-s energy per
    accepted step.
    """
    def tangential(u, F):
        normal = np.sum(u * F, axis=-1, keepdims=True)
        return float(np.max(np.linalg.norm(F - u * normal, axis=-1)))

    return _sphere_flow(grid, g, s, m, step_size, steps, tol, tangential,
                        lambda w, tau: _project_sphere(w), lambda u: 0.0, 1.0)


def ginzburg_landau_solve(cfg: GLConfig, g: ExteriorRule, grid: GridSpec,
                          m: int = 2):
    """Penalized relaxation:  (-Delta)^s v = (1/eps)(1 - |v|^2) v  in the
    ball, v = g outside.  The reaction is integrated implicitly (nodewise
    scalar Newton), the nonlocal part explicitly.

    Returns (field, report); the trace carries the penalized energy
    E_s + (1/(4 eps)) integral of (1 - |v|^2)^2, and constraint_violation
    reports max | |v| - 1 | over interior nodes.
    """
    eps = cfg.epsilon

    def residual(u, F):
        mod2 = np.sum(u * u, axis=-1, keepdims=True)
        return float(np.max(np.linalg.norm(F - (1.0 - mod2) * u / eps, axis=-1)))

    def react(w, tau):
        # nodewise backward reaction step: rho (1 + a (rho^2 - 1)) = |w|
        a = tau / eps
        wn = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
        rho = np.maximum(wn, 1.0)
        for _ in range(40):
            f = rho * (1.0 + a * (rho * rho - 1.0)) - wn
            fp = 1.0 + a * (3.0 * rho * rho - 1.0)
            step = f / fp
            rho = np.maximum(rho - step, 0.0)
            if float(np.max(np.abs(step))) < 1e-15:
                break
        return w * (rho / np.maximum(wn, 1e-300))

    def penalty(u):
        mod2 = np.sum(u * u, axis=-1)
        return grid.h**grid.dim / (4.0 * eps) * float(np.sum((1.0 - mod2) ** 2))

    return _sphere_flow(grid, g, cfg.s, m, None, cfg.max_steps, cfg.tol,
                        residual, react, penalty, None)


def euler_lagrange_residual(u: SampledField, s: float) -> SampledField:
    """Residual field |(-Delta)^s u - u B(u, u)| (vector norm per node) for a
    unit-modulus field; the modulus is checked to 1e-8 on interior nodes."""
    mask = u.grid.interior_mask()
    mod = u.magnitude()
    worst = float(np.max(np.abs(mod[mask] - 1.0)))
    if worst > 1e-8:
        raise DomainError(f"field modulus deviates from 1 by {worst:.2e}")
    lap, _ = apply_fractional_laplacian_field(u, s)
    kernel = make_fractional_kernel(u.grid.dim, s)
    bvals, _ = bilinear_form_field(u, u, kernel)
    resid = np.linalg.norm(lap - np.asarray(u.values) * bvals[..., None], axis=-1)
    return SampledField(u.grid, resid[..., None],
                        u.exterior if u.grid.periodic else zero_rule(), None)
