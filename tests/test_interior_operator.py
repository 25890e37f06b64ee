"""The matrix-free interior operator against its dense oracle.

AssembledOperator.A gathers the dense matrix from the weights; matvec, the
preconditioned conjugate-gradient solve and the solve's error certificate
are checked against it across dimensions, component counts, exterior rules
(with and without a far limit) and kernels (fractional,
diagonal-anisotropic and rotated anisotropic).  The circulant
preconditioner is checked against the dense inverse of the whole-torus
operator it restricts, and by the iteration counts it buys.
"""

import tracemalloc

import numpy as np
import pytest

from fracsys import (GridSpec, LinearProblem, SolverError, callback_rule,
                     constant_rule, make_anisotropic_kernel, make_custom_kernel,
                     make_fractional_kernel, solve_linear_dirichlet, zero_rule)
from fracsys.operators import assemble_dirichlet
from fracsys.quadrature import scheme_for

GRIDS = {1: GridSpec(dim=1, h=1 / 32, radius=1.0), 2: GridSpec(dim=2, h=1 / 8, radius=1.0)}

KERNELS = {
    "1d-frac-0.3": lambda: make_fractional_kernel(1, 0.3),
    "1d-frac-0.8": lambda: make_fractional_kernel(1, 0.8),
    "2d-frac": lambda: make_fractional_kernel(2, 0.5),
    "2d-diagonal": lambda: make_anisotropic_kernel([[1.5, 0.0], [0.0, 0.8]], 0.6),
    "2d-rotated": lambda: make_anisotropic_kernel([[1.5, 0.3], [0.2, 0.8]], 0.7),
}


def rule_for(name, m):
    if name == "zero":
        return zero_rule()
    if name == "constant":  # has a far limit
        return constant_rule([0.7, -0.4][:m])
    # a callback has none
    return callback_rule(lambda p: np.stack([np.cos(p[:, 0] + 0.5 * p[:, -1]),
                                             np.sin(2.0 * p[:, 0])][:m], axis=-1))


CASES = [(k, r, m) for k in KERNELS for r in ("zero", "constant", "callback")
         for m in (1, 2)]


def operator(kernel_name, rule_name, m):
    kernel = KERNELS[kernel_name]()
    return assemble_dirichlet(kernel, GRIDS[kernel.dim], rule_for(rule_name, m), m=m)


@pytest.mark.parametrize("kernel_name, rule_name, m", CASES)
def test_matvec_matches_dense(kernel_name, rule_name, m):
    op = operator(kernel_name, rule_name, m)
    A = op.A
    x = np.random.default_rng(5).normal(size=(A.shape[0], m))
    ref = A @ x
    assert np.max(np.abs(op.matvec(x) - ref)) <= 1e-13 * np.max(np.abs(ref))
    # a single column may come as a vector
    assert np.max(np.abs(op.matvec(x[:, 0]) - ref[:, 0])) <= 1e-13 * np.max(np.abs(ref))
    # the load and the residual form go through the same matvec
    assert np.array_equal(op.apply_neg_lk(x), op.matvec(x) - op.load)


@pytest.mark.parametrize("kernel_name, rule_name, m", CASES)
def test_solve_matches_dense(kernel_name, rule_name, m):
    op = operator(kernel_name, rule_name, m)
    b = op.load + np.random.default_rng(6).normal(size=op.load.shape)
    ref = np.linalg.solve(op.A, b)
    x = op.solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert 0 < op.solve_iterations[-1] <= b.shape[0]


@pytest.mark.parametrize("kernel_name", list(KERNELS))
@pytest.mark.parametrize("rule_name", ["zero", "constant", "callback"])
def test_error_bound_covers_true_error(kernel_name, rule_name):
    kernel = KERNELS[kernel_name]()
    grid, rule = GRIDS[kernel.dim], rule_for(rule_name, 1)

    def rhs(p):
        return 1.0 + 0.5 * np.sin(3.0 * p[:, 0])

    v, rep = solve_linear_dirichlet(LinearProblem(kernel, grid, rhs, rule))
    op = assemble_dirichlet(kernel, grid, rule, m=1)
    pts = grid.points().reshape(-1, grid.dim)[op.interior_flat]
    exact = np.linalg.solve(op.A, rhs(pts)[:, None] + op.load)
    err = np.max(np.abs(np.asarray(v.values).reshape(-1, 1)[op.interior_flat] - exact))
    assert np.isfinite(rep.error_bound)
    assert err <= rep.error_bound
    assert 0 < rep.iterations <= op.interior_flat.size


@pytest.mark.parametrize("kernel_name", ["1d-frac-0.3", "2d-rotated"])
def test_inverse_norm_bound_covers_dense_inverse(kernel_name):
    # for the M-matrix A, ||A^-1||_inf = max(A^-1 1)
    op = operator(kernel_name, "callback", 1)
    exact = float(np.max(np.linalg.solve(op.A, np.ones(op.interior_flat.size))))
    bound = op.inverse_norm_bound()
    assert exact <= bound <= exact * (1.0 + 1e-10)


def test_condition_estimate_bounds_dense_condition():
    op = operator("2d-diagonal", "zero", 1)
    assert np.linalg.cond(op.A) <= op.condition_estimate < np.inf


def test_solve_linear_never_builds_the_matrix():
    # 2-d h = 1/32: 3205 unknowns, so A alone would take 78.4 MiB
    grid = GridSpec(dim=2, h=1 / 32, radius=1.0)
    problem = LinearProblem(make_fractional_kernel(2, 0.5), grid, 1.0, zero_rule())
    tracemalloc.start()
    try:
        _, rep = solve_linear_dirichlet(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert np.isfinite(rep.error_bound)


# -- the circulant preconditioner -----------------------------------------------


@pytest.mark.parametrize("kernel_name, rule_name, m", CASES)
def test_preconditioner_symbol_is_positive(kernel_name, rule_name, m):
    op = operator(kernel_name, rule_name, m)
    assert np.isrealobj(op.symbol) and op.symbol.base is None  # no complex array kept
    assert np.min(op.diagonal - op.symbol) > 0.0
    # every weight is >= 0, so the symbol peaks at the zero frequency
    assert np.max(op.symbol) <= op.offdiag_sum * (1.0 + 1e-14)


def test_negative_weights_are_refused():
    # diagonal - symbol <= 0: the preconditioner would not be positive definite
    kernel = make_custom_kernel(lambda r: -np.abs(r) ** -1.6, 0.3, 1, 1.0, 1.0)
    with pytest.raises(SolverError) as info:
        assemble_dirichlet(kernel, GRIDS[1], zero_rule())
    assert info.value.diagnostics["condition_estimate"] == np.inf


def torus_operator(op):
    """The dense diagonal - circ(W cropped to |k_i| <= L_i - 1) on the torus
    of shape fft_shape, and the torus indices of the interior nodes."""
    W = scheme_for(op.kernel, op.grid).weights
    c = W.shape[0] // 2
    N, L = np.array(op.fft_shape), np.array(op.box)
    nodes = np.indices(op.fft_shape).reshape(len(N), -1)
    diff = nodes[:, :, None] - nodes[:, None, :]
    # the one representative of each residue mod N that the crop can hold
    off = (diff + (L - 1)[:, None, None]) % N[:, None, None] - (L - 1)[:, None, None]
    inside = np.all(off <= (L - 1)[:, None, None], axis=0)
    C = -np.where(inside, W[tuple(c + np.minimum(off, L[:, None, None] - 1))], 0.0)
    C[np.diag_indices_from(C)] += op.diagonal
    in_box = np.all(nodes < L[:, None], axis=0)
    box_nodes = np.flatnonzero(in_box)
    if op.box_mask is not None:
        box_nodes = box_nodes[op.box_mask.ravel()]
    return C, box_nodes


@pytest.mark.parametrize("kernel_name, rule_name", [
    ("1d-frac-0.3", "callback"), ("2d-frac", "zero"), ("2d-rotated", "constant")])
def test_preconditioner_is_restricted_torus_inverse(kernel_name, rule_name):
    op = operator(kernel_name, rule_name, 1)
    C, sel = torus_operator(op)
    # the torus operator agrees with A on the interior nodes: nothing wraps
    assert np.max(np.abs(C[np.ix_(sel, sel)] - op.A)) <= 1e-13 * op.diagonal
    n = op.interior_flat.size
    P = op.precondition(np.eye(n))
    ref = np.linalg.inv(C)[np.ix_(sel, sel)]
    assert np.max(np.abs(P - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(P - P.T)) <= 1e-13 * np.max(np.abs(P))
    assert np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) > 0.0


@pytest.fixture(scope="module")
def pcg_iterations():
    """Iteration counts of solve_linear_dirichlet, 2-d, zero rule, rhs 1."""
    counts = {}
    for h in (1 / 16, 1 / 32):
        for s in (0.5, 0.9):
            problem = LinearProblem(make_fractional_kernel(2, s),
                                    GridSpec(dim=2, h=h, radius=1.0), 1.0, zero_rule())
            _, rep = solve_linear_dirichlet(problem)
            counts[h, s] = rep.iterations
    return counts


@pytest.mark.parametrize("s", [0.5, 0.9])
def test_preconditioned_iterations_at_h_1_32(pcg_iterations, s):
    # unpreconditioned CG takes 104 (s = 0.5) and 126 (s = 0.9) here
    assert pcg_iterations[1 / 32, s] <= 30


@pytest.mark.parametrize("s", [0.5, 0.9])
def test_iterations_grow_slowly_under_refinement(pcg_iterations, s):
    # unpreconditioned CG doubles (53 -> 104 at s = 0.5)
    assert pcg_iterations[1 / 32, s] <= 1.6 * pcg_iterations[1 / 16, s]
