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

Both sphere-valued flows start from the radial projection of the
componentwise linear extension of the exterior data and take linearly
implicit steps: each solves  (I + tau H) d = -tau G  for the energy's
gradient G and a positive semidefinite H, by conjugate gradients
preconditioned with the same circulant shifted to 1 + tau (diagonal -
symbol).  The constrained flow works on the tangent space of the sphere and
projects u + d back to it nodewise (the tangent-plane scheme); the relaxed
flow adds d and carries the penalty (1/(4 eps)) (1 - |v|^2)^2 in its energy
and in H.  A guard rejects a step whose energy rises and halves tau, so
both energy traces are monotone.

Solvers are single-threaded state machines over immutable field snapshots;
each iteration produces a new snapshot and the report is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SolverError
from .fields import ExteriorRule, GridSpec, SampledField, _exterior_sample, zero_rule
from .kernels import KernelSpec, make_fractional_kernel
from .operators import (AssembledOperator, _cg, apply_fractional_laplacian_field,
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
    budget (a non-negative integer) and the residual tolerance.  The
    pseudo-time step starts at default_flow_step; the flow halves it when a
    step would raise the energy."""

    epsilon: float
    s: float
    max_steps: int = 20000
    tol: float = 1e-6

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise DomainError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.s < 1.0:
            raise DomainError(f"order parameter out of range: s={self.s}")


def solve_linear_dirichlet(problem: LinearProblem):
    """Preconditioned conjugate-gradient solve of the interior system
    A x = b, b the right-hand side plus the exterior data's load; returns
    (field, report).  The report's iterations is the PCG count, its
    final_residual ||b - A x||_inf / ||b||_inf and its error_bound the
    certificate
    ||x - x*||_inf <= ||A^(-1)||_inf ||b - A x||_inf, with ||A^(-1)||_inf
    bounded by AssembledOperator.inverse_norm_bound."""
    op = assemble_dirichlet(problem.kernel, problem.grid, problem.exterior, m=1)
    pts = problem.grid.points().reshape(-1, problem.grid.dim)
    rhs = problem.rhs_values(pts[op.interior_flat])
    b = rhs[:, None] + op.load
    sol, iterations = op.solve(b)
    resid = float(np.max(np.abs(b - op.matvec(sol))))
    b_max = float(np.max(np.abs(b)))
    # the guard scales with the system solved, data and exterior load alike;
    # a residual that overflowed to nan fails it too
    if not (np.all(np.isfinite(sol)) and resid <= 1e-6 * max(b_max, 1.0) * sol.shape[0]):
        raise SolverError("ill-conditioned interior system",
                          condition_estimate=op.condition_estimate)
    bound = op.inverse_norm_bound() * resid if resid > 0.0 else 0.0
    report = SolveReport(iterations=iterations,
                         final_residual=resid / max(b_max, 1e-300),
                         truncation_estimate=op.truncation_estimate, error_bound=bound)
    return op.field(sol), report


def default_flow_step(kernel: KernelSpec, grid: GridSpec) -> float:
    """Pseudo-time step 10^3 R^(2s)/Lam of the linearly implicit flows.

    Lam R^(-2s) is the scale of the operator's lowest modes on the ball of
    radius R, so tau times every eigenvalue is about 10^3 or more and each
    step is close to a Newton step on the tangent space.  The step is stable
    for every tau; the scale only sets how few steps a flow takes."""
    return 1e3 * grid.radius ** (2.0 * kernel.s) / kernel.Lam


def _check_unit_exterior(rule: ExteriorRule, grid: GridSpec, m: int):
    mag = np.linalg.norm(_exterior_sample(rule, grid, m), axis=-1)
    if np.max(np.abs(mag - 1.0)) > 1e-8:
        raise DomainError("exterior data must be unit length")


def _project_sphere(w: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(w * w, axis=-1, keepdims=True))
    bad = np.nonzero(norms[..., 0] < 1e-12)[0]
    if bad.size:
        raise SolverError("projection of a (near) zero vector",
                          node_index=int(bad[0]))
    return w / norms


def _tangent(u: np.ndarray):
    """The nodewise projection P x = x - u (u . x) onto the tangent space of a
    unit field u (n, m)."""
    return lambda x: x - u * np.sum(u * x, axis=-1, keepdims=True)


def _implicit_solve(op: AssembledOperator, matvec, precondition,
                    rhs: np.ndarray) -> np.ndarray:
    """d with (I + tau H) d = rhs, by preconditioned CG on the flattened
    n * m vector: the operators couple the components at a node, so the
    columns are not solved one by one."""
    shape = rhs.shape

    def flat(f):
        return lambda x: f(x.reshape(shape)).reshape(x.shape)

    d, _ = _cg(flat(matvec), flat(precondition), rhs.ravel(), op.condition_estimate)
    return d.reshape(shape)


# trial steps rejected in a row, each at half the step of the one before,
# before a flow gives up
_MAX_REJECTIONS = 30


def _sphere_flow(grid: GridSpec, g: ExteriorRule, s: float, m: int,
                 tau: Optional[float], steps: int, tol: float,
                 gradient, advance, penalty, bound):
    """The linearly implicit flow from the radial projection of the linear
    extension of the unit data g: u <- advance(op, u, G, tau), which solves
    (I + tau H) d = -tau G for the gradient G = gradient(u, F) and a
    positive semidefinite H, then updates u with d.

    F = A u - load of the current iterate gives G, the stopping residual
    max_i |G_i| and the energy of u, because
    (1/2) u.Au - u.load = (1/2) u.(F - load); penalty(u) is added to it.
    A trial whose energy rises by more than the rounding slack is rejected
    and tau halved; _MAX_REJECTIONS in a row raise SolverError.  An accepted
    trial's F is the next step's, so a step costs one apply_neg_lk.  Stops
    when the residual falls below tol relative to its first value (or to
    the rounding scale of the operator) or after `steps` accepted steps;
    DomainError when steps is not a non-negative integer or tol is not
    finite.  Returns (field, report).
    """
    kernel = make_fractional_kernel(grid.dim, s)
    if tau is None:
        tau = default_flow_step(kernel, grid)
    elif not (np.isfinite(tau) and tau > 0.0):
        raise DomainError(f"step size must be positive and finite, got {tau}")
    if not np.isfinite(tol):
        raise DomainError(f"residual tolerance must be finite, got {tol}")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise DomainError(f"step budget must be a non-negative integer, got {steps}")
    _check_unit_exterior(g, grid, m)
    op = assemble_dirichlet(kernel, grid, g, m=m)
    extension, _ = op.solve(op.load)
    try:
        u = _project_sphere(extension)
    except SolverError as exc:
        # degree-one data (radial_projection) do this by symmetry
        node = exc.diagnostics["node_index"]
        raise SolverError(
            f"the linear extension of the exterior data vanishes at interior "
            f"node {node}, so the flow has no start on the sphere there",
            node_index=node) from exc

    def quadratic(u, F):
        return 0.5 * op.hvol * float(np.sum(u * (F - op.load)))

    F = op.apply_neg_lk(u)
    # calibrate the additive constant once so the trace reports true energies
    offset = s_energy(op.field(u), s).total - quadratic(u, F)
    trace = [quadratic(u, F) + offset + penalty(u)]
    slack0 = 1e-12 * (abs(trace[0]) + 1.0)
    # the energy's rounding is about eps * diagonal * hvol * sum |u|^2
    rounding = np.finfo(float).eps * op.diagonal * op.hvol
    floor = 1e-13 * op.diagonal  # rounding scale of the operator
    G = gradient(u, F)
    resid = float(np.max(np.linalg.norm(G, axis=-1)))
    resid0 = max(resid, 1e-300)
    k = 0
    while k < steps and resid > tol * resid0 and resid > floor:
        slack = slack0 + rounding * float(np.sum(u * u))
        rejected = 0
        while True:
            trial = advance(op, u, G, tau)
            F_trial = op.apply_neg_lk(trial)
            energy = quadratic(trial, F_trial) + offset + penalty(trial)
            if energy <= trace[-1] + slack:
                break
            rejected += 1
            if rejected == _MAX_REJECTIONS:
                raise SolverError(f"energy rose on {rejected} trial steps in a row",
                                  step=tau, trace_tail=(*trace[-3:], energy))
            tau *= 0.5
        u, F = trial, F_trial
        trace.append(energy)
        G = gradient(u, F)
        resid = float(np.max(np.linalg.norm(G, axis=-1)))
        k += 1
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
    order-s energy with unit exterior data g, by the tangent-plane scheme
    (Alouges 1997; Bartels 2015): each step solves
    (I + tau P A P) d = -tau P F on the tangent space {d : d_i . u_i = 0},
    P the nodewise tangent projection and F = A u - load, and sets
    u <- (u + d)/|u + d|.  Then |u + d| >= 1, and as every weight is >= 0
    and the exterior data are unit, the projection cannot raise the energy:
    the step decreases it for every tau > 0 (step_size, default
    default_flow_step).  The system is solved by CG preconditioned with the
    shifted circulant P circ(1/(1 + tau (diagonal - symbol))) P.

    Stops when the tangential residual |(-Delta)^s u - u (u . (-Delta)^s u)|
    falls below tol relative to its initial value, or the budget of steps (a
    non-negative integer) runs out.  Returns (field, report); the energy
    trace lists the order-s energy per accepted step.
    """
    def advance(op, u, G, tau):
        P = _tangent(u)
        # the right-hand side is projected twice: the rounding of one
        # projection leaves a normal part that CG cannot reduce once P F is small
        d = _implicit_solve(op, lambda x: P(x + tau * op.matvec(x)),
                            lambda r: P(op.precondition(P(r), tau)), P(-tau * G))
        return _project_sphere(u + d)

    return _sphere_flow(grid, g, s, m, step_size, steps, tol,
                        lambda u, F: _tangent(u)(F), advance, lambda u: 0.0, 1.0)


def ginzburg_landau_solve(cfg: GLConfig, g: ExteriorRule, grid: GridSpec,
                          m: int = 2):
    """Penalized relaxation:  (-Delta)^s v = (1/eps)(1 - |v|^2) v  in the
    ball, v = g outside, by the same linearly implicit flow: each step
    solves (I + tau (A + D_u)) d = -tau (F - (1 - |u|^2) u / eps) and sets
    u <- u + d.  D_u = (1/eps)[max(|u|^2 - 1, 0) I + 2 |u|^2 n n^T],
    n = u/|u|, is the positive semidefinite part of the penalty's Hessian.
    The preconditioner sends the tangential part (along P = I - n n^T)
    through the shifted circulant circ(1/(1 + tau (diagonal - symbol))) and
    the radial part through the same circulant shifted further by the mean
    over the nodes of D_u's radial entry.  The penalty is not convex, so a
    large step can raise the energy; the flow's guard halves tau until it
    does not.  The step size is default_flow_step.

    Returns (field, report); the trace carries the penalized energy
    E_s + (1/(4 eps)) integral of (1 - |v|^2)^2, and constraint_violation
    reports max | |v| - 1 | over interior nodes.
    """
    eps = cfg.epsilon

    def gradient(u, F):
        mod2 = np.sum(u * u, axis=-1, keepdims=True)
        return F - (1.0 - mod2) * u / eps

    def advance(op, u, G, tau):
        mod2 = np.sum(u * u, axis=-1, keepdims=True)
        n = u / np.sqrt(mod2)
        c = np.maximum(mod2 - 1.0, 0.0) / eps
        P = _tangent(n)
        # the radial entry of D_u varies little across the nodes: its mean
        # shifts the circulant for the radial part
        c_radial = float(np.mean(c + 2.0 * mod2 / eps))

        def matvec(x):
            Dx = c * x + (2.0 / eps) * u * np.sum(u * x, axis=-1, keepdims=True)
            return x + tau * (op.matvec(x) + Dx)

        def precondition(r):
            rn = np.sum(n * r, axis=-1, keepdims=True)
            return P(op.precondition(P(r), tau)) + n * op.precondition(rn, tau, c_radial)

        return u + _implicit_solve(op, matvec, precondition, -tau * G)

    def penalty(u):
        mod2 = np.sum(u * u, axis=-1)
        return grid.h**grid.dim / (4.0 * eps) * float(np.sum((1.0 - mod2) ** 2))

    return _sphere_flow(grid, g, cfg.s, m, None, cfg.max_steps, cfg.tol,
                        gradient, advance, penalty, None)


def _el_residual(u: SampledField, s: float) -> np.ndarray:
    """(-Delta)^s u - u B(u, u) at every node, shape (*grid.shape, m)."""
    lap, _ = apply_fractional_laplacian_field(u, s)
    bvals, _ = bilinear_form_field(u, u, make_fractional_kernel(u.grid.dim, s))
    return lap - np.asarray(u.values) * bvals[..., None]


def euler_lagrange_residual(u: SampledField, s: float) -> SampledField:
    """Residual field |(-Delta)^s u - u B(u, u)| (vector norm per node) for a
    unit-modulus field; the modulus is checked to 1e-8 on interior nodes."""
    worst = float(np.max(np.abs(u.magnitude()[u.grid.interior_mask()] - 1.0)))
    if worst > 1e-8:
        raise DomainError(f"field modulus deviates from 1 by {worst:.2e}")
    resid = np.linalg.norm(_el_residual(u, s), axis=-1)
    return SampledField(u.grid, resid[..., None],
                        u.exterior if u.grid.periodic else zero_rule(), None)
