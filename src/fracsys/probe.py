"""Numerical probes of interior-regularity machinery: growth-constant audits,
Harnack ratios of nonnegative supersolutions, the one-step contraction of the
image ball, dyadic oscillation-decay ledgers with Holder-exponent extraction,
the scaling bookkeeping of the growth constants, and the barrier bound.

These are measurement tools, not proofs: they extract sharp observed
constants (by bisection or least squares) from sampled fields and check the
inequalities the theory predicts, reporting margins and slack instead of
asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .enclosing import smallest_enclosing_ball
from .fields import GridSpec, SampledField, _ball_node_values, zero_rule
from .kernels import KernelSpec, make_fractional_kernel
from .operators import apply_LK_field, assemble_dirichlet
from .quadrature import scheme_for
from .solvers import LinearProblem, solve_linear_dirichlet

__all__ = [
    "GrowthBounds",
    "DecayLedger",
    "HarnackReport",
    "structural_audit",
    "scaling_ledger",
    "harnack_probe",
    "harnack_sweep",
    "supersolution_family",
    "contraction_step",
    "dyadic_ledger",
    "head_start_level",
    "barrier_bound",
]


@dataclass(frozen=True)
class GrowthBounds:
    """Growth constants of the right-hand side: |f| <= a q + b and
    u . f <= a_star q + b_star against the quadratic-form argument q, plus
    the pointwise bound M on the solution.

    l = (a_star + M)/2 is the contraction driver (normalized to a = 1), and
    the structural quantity a M + a_star is always derived, never stored.
    """

    a: float
    b: float
    a_star: float
    b_star: float
    M: float

    def __post_init__(self):
        if min(self.a, self.b, self.a_star, self.b_star) < 0:
            raise DomainError("growth constants must be nonnegative")
        if self.M <= 0:
            raise DomainError("the pointwise bound M must be positive")

    @property
    def l(self) -> float:
        return 0.5 * (self.a_star + self.M)

    @property
    def structural(self) -> float:
        return self.a * self.M + self.a_star


def structural_audit(bounds: GrowthBounds) -> dict:
    """Evaluate the structural quantity a M + a_star against the threshold 2."""
    q = bounds.structural
    return {"structural": q, "satisfied": bool(q < 2.0), "margin": 2.0 - q}


def scaling_ledger(bounds: GrowthBounds, mu: float, t: float, s: float) -> GrowthBounds:
    """Growth constants of the rescaled solution x -> mu u(t x):

        M -> mu M,   b* -> mu^2 t^(2s) b*,   b -> mu t^(2s) b,
        a* -> mu^2 a*,   a -> mu a.

    Exact floating-point transcription; dyadic mu, t reproduce bitwise.
    """
    if mu <= 0 or t <= 0:
        raise DomainError("mu and t must be positive")
    t2s = t ** (2.0 * s)
    return GrowthBounds(
        a=mu * bounds.a,
        b=mu * t2s * bounds.b,
        a_star=mu * mu * bounds.a_star,
        b_star=mu * mu * t2s * bounds.b_star,
        M=mu * bounds.M,
    )


@dataclass(frozen=True)
class HarnackReport:
    """sup/inf ratio of a nonnegative supersolution over the probe ball,
    per probed order s."""

    ratio: float
    s_values: tuple
    ratios_by_s: tuple


def harnack_probe(h: SampledField, kernel: KernelSpec, ball) -> HarnackReport:
    """Harnack ratio sup h / inf h over the ball for a verified nonnegative
    supersolution.

    Checks h >= 0 at the stored nodes and on a sample of exterior points,
    and -L h >= -tol at interior nodes with tol = 1e-6 * |h|_inf times the
    operator scale (total quadrature mass).  Violations raise with the worst
    node.
    """
    if h.m != 1:
        raise DomainError("harnack_probe expects a scalar field")
    vals = np.asarray(h.values)[..., 0]
    hmax = float(np.max(np.abs(vals)))
    if float(np.min(vals)) < -1e-12 * max(hmax, 1.0):
        idx = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise DomainError(f"field is negative at node {idx}")
    if not h.grid.periodic:
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(128, h.grid.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = h.grid.extent * (1.0 + 4.0 * rng.random((128, 1)))
        g = h.exterior.values(radii * dirs, 1)
        if float(np.min(g)) < -1e-12 * max(hmax, 1.0):
            raise DomainError("exterior rule takes negative values")
    lvals, _ = apply_LK_field(h, kernel)
    mask = h.grid.interior_mask()
    neg_l = -lvals[..., 0][mask]
    scale = hmax * scheme_for(kernel, h.grid).diagonal()
    worst = float(np.min(neg_l))
    if worst < -1e-6 * max(scale, 1e-300):
        flat = int(np.argmin(np.where(mask, -lvals[..., 0], np.inf)))
        raise DomainError(
            f"supersolution check failed: -Lh = {worst:.3e} at flat node {flat}")
    hv = _ball_node_values(h, *ball)[:, 0]
    lo = float(np.min(hv))
    ratio = float(np.max(hv) / lo) if lo > 0 else float("inf")
    s = kernel.s
    return HarnackReport(ratio=ratio, s_values=(s,), ratios_by_s=(ratio,))


def harnack_sweep(builder, s_values, ball) -> HarnackReport:
    """Run harnack_probe across orders; builder(s) -> (field, kernel)."""
    ratios = []
    for s in s_values:
        h, kernel = builder(s)
        ratios.append(harnack_probe(h, kernel, ball).ratio)
    return HarnackReport(ratio=float(np.max(ratios)), s_values=tuple(s_values),
                         ratios_by_s=tuple(ratios))


def supersolution_family(grid: GridSpec, g, m: int = 2):
    """Family of verified nonnegative supersolutions, one per order s.

    Solves -L u_i = 0 componentwise with unit exterior data g, then forms

        h = M^2/2 + (1 - l) M - |u|^2/2 - rho . u,      l = M/2,

    with rho = 0.9 (1 - l) e_1.  Because the solve is exact at the discrete
    level to the conjugate-gradient tolerance (relative residual 1e-13) and
    the square identity is exact by construction, -L h = B(u, u) >= 0 holds
    to that tolerance and rounding, and h >= 0.1 (1 - l) M keeps the Harnack
    ratio finite.  Returns builder(s) -> (h_field, kernel).
    """
    def build(s):
        kernel = make_fractional_kernel(grid.dim, s)
        op = assemble_dirichlet(kernel, grid, g, m=m)
        u = op.field(op.solve(op.load))
        vals = np.asarray(u.values).reshape(-1, m)
        M = max(1.0, float(np.max(np.linalg.norm(vals, axis=1))))
        l = 0.5 * M
        rho = np.zeros(m)
        rho[0] = 0.9 * (1.0 - l)
        const = 0.5 * M * M + (1.0 - l) * M

        def h_of(v):
            return (const - 0.5 * np.sum(v * v, axis=1) - v @ rho)[:, None]

        h = SampledField(grid, h_of(vals).reshape(*grid.shape, 1), g.mapped(h_of, m))
        return h, kernel

    return build


def contraction_step(u: SampledField, bounds: GrowthBounds, ball) -> dict:
    """Sharpest one-step contraction of the image ball.

    Finds the largest delta in [0, 1] such that every sampled value of u on
    the ball lies in the shrunken shifted ball B_{M(1-delta)}(delta u_bar),
    by bisection on the containment predicate (the predicate is monotone
    because M >= |u_bar|).  delta_observed = 0 means no contraction could be
    certified; the equality case |u| = M = const is flagged as boundary.
    """
    if bounds.l >= 1.0:
        raise DomainError(f"contraction requires l < 1, got l={bounds.l}")
    M = bounds.M
    V = _ball_node_values(u, *ball)
    vmax = float(np.max(np.linalg.norm(V, axis=1)))
    atol = 1e-12 * max(M, 1.0)
    if vmax > M + atol:
        raise DomainError(f"pointwise bound violated: |u| reaches {vmax} > M={M}")
    ubar = V.mean(axis=0)

    def excess(delta):
        return float(np.max(np.linalg.norm(V - delta * ubar, axis=1))) - M * (1.0 - delta)

    boundary = abs(excess(0.0)) <= atol and abs(excess(1.0)) <= atol
    if boundary:
        return {"delta_observed": 1.0, "new_center": ubar.copy(),
                "contained": True, "boundary_case": True}
    if excess(1.0) <= atol:
        delta = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if excess(mid) <= atol:
                lo = mid
            else:
                hi = mid
        delta = lo if lo > 1e-9 else 0.0  # below rounding scale: no contraction
    return {"delta_observed": delta, "new_center": delta * ubar,
            "contained": bool(delta > 0.0), "boundary_case": False}


@dataclass(frozen=True)
class DecayLedger:
    """Enclosing balls (rho_k, M_k) of the image of dyadic balls, the fitted
    contraction factor and Holder exponent, plus the audit margins.

    alpha_fit = log(1 / (1 - delta_fit)) / log 2.  slack is the worst
    violation of M_{k+1} <= (1 - delta_fit) M_k relative to M_0.
    shift_budget accumulates sum 2^(-s i); geometric_margin and flat_margin
    report the two decay-bound variants (nonnegative margin = bound holds).
    """

    levels: np.ndarray
    ball_radii: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    delta_fit: float
    alpha_fit: float
    slack: float
    shift_budget: np.ndarray
    containment_violation: float
    geometric_margin: float
    flat_margin: float
    finest_mean_norm: float


def dyadic_ledger(u: SampledField, x0, levels: int, bounds: GrowthBounds,
                  s: Optional[float] = None) -> DecayLedger:
    """Track the smallest enclosing ball of u over balls of radius 2^(-k)
    centered at x0, k = 0..levels, and fit the geometric decay rate.

    The fit uses levels k >= 1 only (the first level carries setup bias) by
    least squares on log M_k.  Needs at least three resolvable levels: the
    smallest ball must cover a few grid nodes.  The balls are exact for
    fields with m <= 3 components; above that they come from Ritter's
    heuristic (see smallest_enclosing_ball) and each M_k is an upper bound.
    """
    h = u.grid.h
    radii_x = 0.5 ** np.arange(levels + 1)
    resolvable = radii_x >= 2.0 * h - 1e-12
    if int(np.sum(resolvable)) < 3:
        raise DomainError("fewer than 3 resolvable dyadic levels on this grid")
    if not np.all(resolvable):
        raise DomainError(
            f"level {int(np.argmin(resolvable))} needs a finer grid (h={h})")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    values = [_ball_node_values(u, x0, r) for r in radii_x]
    balls = [smallest_enclosing_ball(v) for v in values]
    centers = np.array([c for c, _ in balls])
    Mk = np.array([r for _, r in balls])
    scale = max(float(Mk.max()), 1e-300)
    k_fit = np.arange(1, levels + 1)
    y = np.log(np.maximum(Mk[1:], 1e-30 * scale))
    slope = float(np.polyfit(k_fit, y, 1)[0]) if levels >= 2 else 0.0
    delta_fit = float(np.clip(1.0 - np.exp(slope), 0.0, 1.0 - 1e-16))
    alpha_fit = max(0.0, -slope / np.log(2.0))
    slack = 0.0
    for k in range(levels):
        slack = max(slack, (Mk[k + 1] - (1.0 - delta_fit) * Mk[k]) / scale)
    containment = 0.0
    for k in range(levels):
        d = np.linalg.norm(values[k + 1] - centers[k], axis=1)
        containment = max(containment, float(np.max(d)) - Mk[k])
    if s is not None:
        budget = np.cumsum(2.0 ** (-s * np.arange(levels + 1)))
        budget[0] = 0.0
        shift_budget = budget
        geom = bounds.M * (1.0 - delta_fit / 2.0**s) ** np.arange(levels + 1)
        geometric_margin = float(np.min(geom - Mk))
    else:
        shift_budget = np.zeros(levels + 1)
        geometric_margin = float("nan")
    flat_margin = float(np.min(bounds.M * (1.0 - 0.5 * delta_fit) - Mk))
    finest_mean = float(np.linalg.norm(values[-1].mean(axis=0)))
    return DecayLedger(
        levels=np.arange(levels + 1),
        ball_radii=radii_x,
        centers=centers,
        radii=Mk,
        delta_fit=delta_fit,
        alpha_fit=alpha_fit,
        slack=float(max(slack, 0.0)),
        shift_budget=shift_budget,
        containment_violation=containment,
        geometric_margin=geometric_margin,
        flat_margin=flat_margin,
        finest_mean_norm=finest_mean,
    )


def head_start_level(bounds: GrowthBounds, tau: float, delta: float, s: float) -> int:
    """Smallest d >= 0 with 2^(-d) b tau (1 + M) <= min(1 - l,
    (2^s - 1)/2^s * M delta); 0 when b vanishes."""
    if bounds.b == 0.0:
        return 0
    lhs0 = bounds.b * tau * (1.0 + bounds.M)
    cap = min(1.0 - bounds.l, (2.0**s - 1.0) / 2.0**s * bounds.M * delta)
    if cap <= 0:
        raise DomainError("no head start exists: the decay cap is nonpositive")
    return max(0, int(np.ceil(np.log2(lhs0 / cap))))


def barrier_bound(grid: GridSpec, kernel: KernelSpec) -> dict:
    """Solve -L v = -1 in the grid ball with zero exterior data and report
    the sup bound of |v| on the half ball plus the derived shift constant
    tau = 2 L_bound (the Harnack factor absorbed at its unit bound)."""
    problem = LinearProblem(kernel, grid, rhs=-1.0, exterior=zero_rule())
    v, report = solve_linear_dirichlet(problem)
    half = _ball_node_values(v, np.zeros(grid.dim), 0.5 * grid.radius)
    L_bound = float(np.max(np.abs(half)))
    return {"v": v, "L_bound": L_bound, "tau": 2.0 * L_bound, "report": report}
