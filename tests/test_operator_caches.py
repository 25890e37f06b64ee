"""The cached padding of fracsys.operators, the skipped correlation of an
all-zero table and the cropped inverse transforms, against the path they
replaced.

The oracle below is that path, kept here unchanged: the padded node
coordinates and their mask built on every call, the rule gathered on them
into a zeroed table, every table correlated (an all-zero one too) with the
full inverse transform cropped afterwards, the norms of the whole table for
the truncation estimate, and the interior operator's circulant products
through the full inverse transform.  Installed in place of the new pieces
it must give bit-identical values and equal estimates, whatever the order
in which grids, kernels and rules come.
"""

import dataclasses

import numpy as np
import pytest
from scipy.fft import next_fast_len

from fracsys import (GridSpec, SampledField, apply_LK_field, assemble_dirichlet,
                     bilinear_form_field, callback_rule, constant_rule,
                     make_anisotropic_kernel, make_fractional_kernel,
                     radial_projection_rule, s_energy, sign_rule, zero_rule)
from fracsys import operators
from fracsys.operators import _Table, _rule_values, _window
from fracsys.quadrature import scheme_for

# -- the oracle: the uncached path --------------------------------------------


def oracle_correlator(W, shape, periodic):
    if periodic:
        Fw = np.conj(np.fft.fftn(W))
        return lambda f: np.real(np.fft.ifftn(np.fft.fftn(f) * Fw))
    size = tuple(next_fast_len(n, real=True) for n in shape)
    axes = tuple(range(len(shape)))
    keep = tuple(slice(0, n - k + 1) for n, k in zip(shape, W.shape))
    Fw = np.conj(np.fft.rfftn(W, s=size, axes=axes))
    return lambda f: np.fft.irfftn(np.fft.rfftn(f, s=size, axes=axes) * Fw,
                                   s=size, axes=axes)[keep]


def oracle_padded_points(grid, M):
    ax = grid.axis()
    full = np.concatenate([ax[0] + grid.h * np.arange(-M, 0), ax,
                           ax[-1] + grid.h * np.arange(1, M + 1)])
    return np.stack(np.meshgrid(*([full] * grid.dim), indexing="ij"), axis=-1)


def oracle_table(u, scheme):
    grid = u.grid
    flat = np.asarray(u.values).reshape(-1, u.m)
    ref = 0.5 * (np.max(flat, axis=0) + np.min(flat, axis=0))
    v = np.asarray(u.values) - ref
    if grid.periodic:
        return _Table(v, v, [], ref)
    M = scheme.weights.shape[0] // 2
    pts = oracle_padded_points(grid, M)
    E = np.zeros((*pts.shape[:-1], u.m))
    stored = (slice(M, M + grid.shape[0]),) * grid.dim
    out = np.ones(pts.shape[:-1], dtype=bool)
    out[stored] = False
    E[out] = _rule_values(u.exterior, pts[out], u.m) - ref
    E[stored] = v
    limits = u.exterior.far_limits(u.m)
    g = None if limits is None else [limits(d) - ref for d in scheme.tail_directions]
    return _Table(v, E, g, ref)


def oracle_far_magnitude(u, t):
    vals = t.E + t.ref
    sup = float(np.max(np.sqrt(np.sum(vals * vals, axis=-1))))
    return sup if u.bound is None else max(sup, float(u.bound))


def oracle_apply(u, kernel, idx=None):
    scheme = scheme_for(kernel, u.grid)
    W = scheme.weights
    t = oracle_table(u, scheme)
    if idx is None:
        corr = oracle_correlator(W, t.E.shape[:-1], u.grid.periodic)
        v = t.v
        WE = np.stack([corr(t.E[..., c]) for c in range(u.m)], axis=-1)
    else:
        v = t.v[idx]
        WE = np.tensordot(W, _window(t.E, W, idx, u.grid.periodic), axes=W.ndim)
    out = WE - float(np.sum(W)) * v
    for g in t.g or ():
        out += scheme.tail_mass * (g - v)
    est = 0.0 if t.g is not None else 4.0 * oracle_far_magnitude(u, t) * scheme.tail_upper
    return out, est


def oracle_interior(kernel, grid, far):
    """The interior operator's kernel-and-grid data, computed afresh."""
    scheme = scheme_for(kernel, grid)
    W = scheme.weights
    inside = grid.interior_mask()
    nodes = np.argwhere(inside)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0) + 1
    box = tuple(int(n) for n in hi - lo)
    c = W.shape[0] // 2
    crop = W[tuple(slice(c - n + 1, c + n) for n in box)]
    fft_shape = tuple(next_fast_len(2 * n - 1, real=True) for n in box)
    wrapped = np.roll(np.pad(crop, [(0, f - (2 * n - 1)) for f, n in zip(fft_shape, box)]),
                      [1 - n for n in box], axis=tuple(range(grid.dim)))
    return {"interior_flat": np.flatnonzero(inside), "box": box,
            "box_mask": inside[tuple(slice(a, b) for a, b in zip(lo, hi))],
            "symbol": np.fft.rfftn(wrapped).real.copy(), "fft_shape": fft_shape,
            "offdiag_sum": float(np.sum(crop)),
            "diagonal": scheme.diagonal() if far else float(np.sum(W))}


def oracle_circulant(op, x, multiplier):
    X = x.reshape(x.shape[0], -1).T
    axes = tuple(range(1, len(op.box) + 1))
    f = np.zeros((X.shape[0], *op.box))
    f[:, op.box_mask] = X
    g = np.fft.irfftn(np.fft.rfftn(f, s=op.fft_shape, axes=axes) * multiplier,
                      s=op.fft_shape, axes=axes)
    g = g[(slice(None),) + tuple(slice(0, n) for n in op.box)][:, op.box_mask]
    return g.T.reshape(x.shape)


def oracle_inverse_norm_bound(op):
    ones = np.ones(op.interior_flat.size)
    v, _ = operators._cg(op.matvec, op.precondition, ones, op.condition_estimate)
    rho = float(np.max(np.abs(ones - op.matvec(v))))
    return float(np.max(v)) / (1.0 - rho) if rho < 1.0 else float("inf")


def uncached(fn, *args):
    """fn(*args) with the oracle in place of the table, the correlation and
    the truncation estimate."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_correlator", oracle_correlator)
        mp.setattr(operators, "_table", oracle_table)
        mp.setattr(operators, "_far_magnitude", oracle_far_magnitude)
        mp.setattr(operators, "_apply", oracle_apply)
        return fn(*args)


# -- cases -----------------------------------------------------------------------

GRIDS = {1: GridSpec(dim=1, h=1 / 32, radius=1.0), 2: GridSpec(dim=2, h=1 / 8, radius=1.0)}


def phase(p):
    return np.stack([np.cos(p[:, 0] + 0.5), np.sin(p[:, -1] - 0.2)], axis=-1)


RULES = {
    "zero": lambda dim, m: zero_rule(),
    "constant": lambda dim, m: constant_rule([0.5, -2.0][:m]),
    "sign": lambda dim, m: sign_rule(),
    "radial": lambda dim, m: radial_projection_rule(),
    "callback": lambda dim, m: callback_rule(lambda p: phase(p)[:, :m]),
}

# (dim, rule, m): every rule in 1-d and 2-d where it is defined
CASES = [(1, r, m) for r in ("zero", "constant", "callback") for m in (1, 2)]
CASES += [(1, "sign", 1), (1, "radial", 1)]
CASES += [(2, r, m) for r in ("zero", "constant", "callback") for m in (1, 2)]
CASES += [(2, "radial", 2)]
IDS = [f"{d}d-{r}-m{m}" for d, r, m in CASES]


def field_for(dim, rule_name, m, seed=0):
    grid = GRIDS[dim]
    vals = np.random.default_rng(seed).normal(size=(*grid.shape, m))
    return SampledField(grid, vals, RULES[rule_name](dim, m))


def kernel_for(dim, s=0.6):
    return make_fractional_kernel(dim, s)


def assert_same(new, old):
    """Bit-identical values and an equal truncation estimate."""
    assert np.array_equal(new[0], old[0])
    assert new[1] == old[1]


# -- field evaluations -------------------------------------------------------------


@pytest.mark.parametrize("dim, rule_name, m", CASES, ids=IDS)
def test_apply_matches_uncached(dim, rule_name, m):
    u = field_for(dim, rule_name, m)
    for kernel in (kernel_for(dim, 0.3), kernel_for(dim, 0.8)):
        assert_same(apply_LK_field(u, kernel), uncached(apply_LK_field, u, kernel))


@pytest.mark.parametrize("dim, rule_name, m", CASES, ids=IDS)
def test_bilinear_matches_uncached(dim, rule_name, m):
    u = field_for(dim, rule_name, m)
    w = u.with_values(field_for(dim, rule_name, m, seed=1).values)
    kernel = kernel_for(dim)
    for a, b in ((u, u), (u, w)):
        assert_same(bilinear_form_field(a, b, kernel),
                    uncached(bilinear_form_field, a, b, kernel))


@pytest.mark.parametrize("dim, rule_name, m", CASES, ids=IDS)
def test_energy_matches_uncached(dim, rule_name, m):
    u = field_for(dim, rule_name, m)
    assert s_energy(u, 0.4) == uncached(s_energy, u, 0.4)


def test_bounded_field_estimate_matches_uncached():
    # a callback rule has no far limit, so the estimate reads the table's sup
    # norm, or the attached bound when that is larger
    u = field_for(2, "callback", 2)
    for bound in (None, 1.0e3):
        v = SampledField(u.grid, u.values, u.exterior, bound)
        new, old = apply_LK_field(v, kernel_for(2)), uncached(apply_LK_field, v, kernel_for(2))
        assert new[1] > 0.0
        assert_same(new, old)


def test_all_zero_load_is_exactly_zero():
    # the zero-rule load skips the correlation; the correlated one is zero too
    kernel, grid = kernel_for(2), GRIDS[2]
    op = assemble_dirichlet(kernel, grid, zero_rule(), m=2)
    ref = uncached(assemble_dirichlet, kernel, grid, zero_rule(), 2)
    assert np.array_equal(op.load, ref.load) and not np.any(op.load)
    assert op.truncation_estimate == ref.truncation_estimate == 0.0


def test_mapped_zero_rule_is_correlated():
    # a mapped zero rule whose values are not zero must not take the zero path
    grid = GRIDS[1]
    rule = zero_rule().mapped(lambda v: v + 2.0, 1)
    u = SampledField(grid, np.zeros((*grid.shape, 1)), rule)
    new = apply_LK_field(u, kernel_for(1))
    assert_same(new, uncached(apply_LK_field, u, kernel_for(1)))
    assert np.any(new[0] != 0.0)


# -- the interior operator --------------------------------------------------------


def assert_operator_matches(op, kernel, grid, rule, m):
    ref = uncached(assemble_dirichlet, kernel, grid, rule, m)
    assert np.array_equal(op.load, ref.load)
    assert op.truncation_estimate == ref.truncation_estimate
    for name, value in oracle_interior(kernel, grid, rule.limit is not None).items():
        got = getattr(op, name)
        assert (np.array_equal(got, value) if isinstance(value, np.ndarray)
                else got == value), name
    x = np.random.default_rng(4).normal(size=(op.interior_flat.size, m))
    assert np.array_equal(op.matvec(x), op.diagonal * x - oracle_circulant(op, x, op.symbol))
    assert np.array_equal(op.precondition(x),
                          oracle_circulant(op, x, 1.0 / (op.diagonal - op.symbol)))


@pytest.mark.parametrize("dim, rule_name, m", CASES, ids=IDS)
def test_assembly_matches_uncached(dim, rule_name, m):
    kernel, grid, rule = kernel_for(dim), GRIDS[dim], RULES[rule_name](dim, m)
    assert_operator_matches(assemble_dirichlet(kernel, grid, rule, m=m), kernel, grid, rule, m)


def test_alternating_grids_and_kernels_keep_their_own_entries():
    grid_b = GridSpec(dim=2, h=1 / 6, radius=1.0)
    kernels = [kernel_for(2, 0.3), kernel_for(2, 0.8),
               make_anisotropic_kernel(np.array([[1.5, 0.2], [0.2, 0.7]]), 0.5)]
    rules = [zero_rule(), callback_rule(lambda p: phase(p)[:, :1])]  # far limit or not
    for _ in range(2):
        for grid in (GRIDS[2], grid_b):
            for kernel in kernels:
                for rule in rules:
                    op = assemble_dirichlet(kernel, grid, rule)
                    assert_operator_matches(op, kernel, grid, rule, 1)
                    M = scheme_for(kernel, grid).weights.shape[0] // 2
                    outside, mask = operators._padding(grid, M)
                    assert np.array_equal(outside, oracle_padded_points(grid, M)[mask])


def test_cached_arrays_refuse_assignment():
    kernel, grid = kernel_for(2), GRIDS[2]
    M = scheme_for(kernel, grid).weights.shape[0] // 2
    for arr in operators._padding(grid, M):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


def test_replaced_diagonal_gets_its_own_inverse_norm_bound():
    op = assemble_dirichlet(kernel_for(1), GRIDS[1], zero_rule())
    bound = op.inverse_norm_bound()
    assert bound == oracle_inverse_norm_bound(op)
    doubled = dataclasses.replace(op, diagonal=2.0 * op.diagonal)
    new = doubled.inverse_norm_bound()
    assert new == oracle_inverse_norm_bound(doubled)
    exact = float(np.max(np.linalg.solve(doubled.A, np.ones(op.interior_flat.size))))
    assert exact <= new <= exact * (1.0 + 1e-9)
    assert new < bound
    assert op.inverse_norm_bound() == bound
