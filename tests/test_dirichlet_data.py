"""The exterior data an AssembledOperator holds.

assemble_dirichlet evaluates the exterior rule once, on every node outside
the interior ball, and stores the result as op.data.  op.field writes
interior values into a copy of it.  The oracle below is the direct
construction: zeros, the rule on every stored node that is not interior,
then the interior values.  The fields must agree bit for bit, field must
make no rule call, and interior values of any other shape are refused.
The pointwise evaluations' interior test is checked node by node against
the Euclidean one it replaced.
"""

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, SampledField, apply_LK, callback_rule,
                     constant_rule, make_fractional_kernel, periodic_rule,
                     radial_projection_rule, sign_rule, zero_rule)
from fracsys.operators import assemble_dirichlet

GRIDS = {1: GridSpec(dim=1, h=1 / 16, radius=1.0), 2: GridSpec(dim=2, h=1 / 8, radius=1.0)}


class CountingRule:
    """A callback rule with m components that counts how often it is
    evaluated."""

    def __init__(self, m):
        self.m = m
        self.calls = 0
        self.rule = callback_rule(self)

    def __call__(self, pts):
        self.calls += 1
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return np.stack([np.cos(r + pts[:, 0]), np.sin(2.0 * r)], axis=-1)[:, : self.m]


def oracle_field(grid, rule, interior_flat, u_int, bound=None):
    """u_int on the interior nodes and the rule on every other stored node,
    built from scratch on every call."""
    m = u_int.shape[1]
    pts = grid.points().reshape(-1, grid.dim)
    vals = np.zeros((pts.shape[0], m))
    outside = np.ones(pts.shape[0], dtype=bool)
    outside[interior_flat] = False
    vals[outside] = rule.values(pts[outside], m)
    vals[interior_flat] = u_int
    return SampledField(grid, vals.reshape(*grid.shape, m), rule, bound)


def make_rule(name, m):
    if name == "zero":
        return zero_rule()
    if name == "constant":
        return constant_rule([0.7, -0.4][:m])
    if name == "sign":
        return sign_rule()
    if name == "radial":
        return radial_projection_rule()
    return CountingRule(m).rule


# (dim, rule, m) wherever the rule is defined
CASES = ([(d, name, m) for d in (1, 2) for name in ("zero", "constant", "callback")
          for m in (1, 2)]
         + [(1, "sign", 1), (1, "radial", 1), (2, "radial", 2)])


@pytest.mark.parametrize("dim, name, m", CASES, ids=[f"{d}d-{n}-m{m}" for d, n, m in CASES])
def test_field_matches_the_rule_built_field(dim, name, m):
    grid = GRIDS[dim]
    rule = make_rule(name, m)
    op = assemble_dirichlet(make_fractional_kernel(dim, 0.5), grid, rule, m)
    n = op.interior_flat.size
    u_int = np.random.default_rng(dim * 10 + m).normal(size=(n, m))
    for bound in (None, 10.0):
        got = op.field(u_int, bound)
        want = oracle_field(grid, rule, op.interior_flat, u_int, bound)
        assert np.array_equal(got.values, want.values)
        assert got.exterior is want.exterior and got.bound == want.bound


@pytest.mark.parametrize("dim, name, m", CASES, ids=[f"{d}d-{n}-m{m}" for d, n, m in CASES])
def test_data_is_the_exterior_data_alone(dim, name, m):
    grid = GRIDS[dim]
    rule = make_rule(name, m)
    op = assemble_dirichlet(make_fractional_kernel(dim, 0.5), grid, rule, m)
    n = op.interior_flat.size
    zero = oracle_field(grid, rule, op.interior_flat, np.zeros((n, m)))
    assert np.array_equal(op.data.values, zero.values)
    assert op.data.exterior is rule and op.data.bound is None
    op.field(np.ones((n, m)))
    assert np.array_equal(op.data.values, zero.values)  # field writes into a copy


@pytest.mark.parametrize("dim", [1, 2])
def test_field_makes_no_rule_call(dim):
    counter = CountingRule(2)
    op = assemble_dirichlet(make_fractional_kernel(dim, 0.5), GRIDS[dim], counter.rule, 2)
    assembled = counter.calls  # the stored nodes, and the padding of the load's table
    u_int = np.ones((op.interior_flat.size, 2))
    for _ in range(3):
        op.field(u_int)
    op.field(u_int, bound=5.0)
    assert counter.calls == assembled


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
def test_field_refuses_other_shapes(dim, m):
    op = assemble_dirichlet(make_fractional_kernel(dim, 0.5), GRIDS[dim], zero_rule(), m)
    n = op.interior_flat.size
    for shape in ((n,), (m,), (n, m + 1)):
        with pytest.raises(DomainError) as err:
            op.field(np.zeros(shape))
        assert str(shape) in str(err.value) and str((n, m)) in str(err.value)


@pytest.mark.parametrize("grid", [
    GRIDS[1], GRIDS[2], GridSpec(dim=1, h=1 / 8, radius=1.0, periodic=True),
    GridSpec(dim=2, h=1 / 4, radius=1.0, periodic=True)], ids=["1d", "2d", "torus-1d", "torus-2d"])
def test_pointwise_interior_test_is_the_euclidean_one(grid):
    # every node within two steps of the sphere |x| = radius, and the origin
    pts = grid.points().reshape(-1, grid.dim)
    r = np.linalg.norm(pts, axis=1)
    near = (np.abs(r - grid.radius) <= 2 * grid.h) | (r == 0.0) | grid.periodic
    rule = periodic_rule() if grid.periodic else zero_rule()
    u = SampledField(grid, np.zeros((*grid.shape, 1)), rule)
    kernel = make_fractional_kernel(grid.dim, 0.5)
    for x in pts[near]:
        outside = not grid.periodic and np.linalg.norm(x) >= grid.radius - 1e-12
        if outside:
            with pytest.raises(DomainError, match="not an interior node"):
                apply_LK(u, kernel, x)
        else:
            assert apply_LK(u, kernel, x) == 0.0
