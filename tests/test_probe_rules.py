"""Each probe rule said once: the closed-form contraction against the
bisection it replaced, the one node-distance rule, ball centres of the wrong
length, the exterior sign check of harnack_probe, the ledger's refusal of a
field without oscillation and the refusal of fields without components."""

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, GrowthBounds, SampledField, callback_rule,
                     constant_field, contraction_step, dyadic_ledger,
                     field_average, field_from_function, harnack_probe,
                     make_fractional_kernel, zero_rule)
from fracsys.fields import _ball_node_values, _node_distance


def bisection_contraction(u, bounds, ball):
    """The oracle: the containment predicate bisected 80 times, as delta was
    found before the closed form.  Returns (delta, contained, boundary_case)."""
    M = bounds.M
    V = _ball_node_values(u, *ball)
    atol = 1e-12 * max(M, 1.0)
    ubar = V.mean(axis=0)

    def excess(delta):
        return float(np.max(np.linalg.norm(V - delta * ubar, axis=1))) - M * (1.0 - delta)

    if abs(excess(0.0)) <= atol and abs(excess(1.0)) <= atol:
        return 1.0, True, True
    if excess(1.0) <= atol:
        return 1.0, True, False
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= atol:
            lo = mid
        else:
            hi = mid
    delta = lo if lo > 1e-9 else 0.0
    return delta, delta > 0.0, False


def seeded_field(grid, seed):
    """A seeded field and its bound M: five kinds by seed, from smooth and
    noisy fields well inside the M-ball to unit fields on its sphere."""
    rng = np.random.default_rng(seed)
    m = 2 + seed % 2
    pts = grid.points().reshape(-1, grid.dim)
    kind = seed % 5
    if kind == 0:  # smooth, off centre
        vals = np.tanh(pts @ rng.normal(size=(grid.dim, m))) + 0.3 * rng.normal(size=m)
    elif kind == 1:  # noise
        vals = rng.normal(size=(pts.shape[0], m))
    elif kind == 2:  # a constant inside the ball
        vals = np.tile(rng.normal(size=m), (pts.shape[0], 1))
    elif kind == 3:  # a saturated constant whose node mean rounds
        v = rng.normal(size=m)
        vals = np.tile(v / np.linalg.norm(v), (pts.shape[0], 1))
    else:  # a saturated spread: unit values with genuine spread
        w = pts @ rng.normal(size=(grid.dim, m)) + 2.0 * rng.normal(size=m)
        vals = w / np.linalg.norm(w, axis=1, keepdims=True)
    peak = float(np.max(np.linalg.norm(vals, axis=1)))
    if kind <= 2:
        vals = vals / peak * rng.uniform(0.3, 1.2)
        M = float(np.max(np.linalg.norm(vals, axis=1))) * rng.choice([1.0, 1.05, 1.3])
    else:
        M = peak
    return SampledField(grid, vals.reshape(*grid.shape, m), zero_rule()), M


class TestClosedFormContraction:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_the_bisection(self, dim, seed):
        grid = GridSpec(dim=dim, h=1 / 32 if dim == 2 else 1 / 64, radius=1.0)
        u, M = seeded_field(grid, seed)
        centre = np.random.default_rng(100 + seed).uniform(-0.3, 0.3, size=dim)
        ball = (centre, 0.5)
        bounds = GrowthBounds(1, 0, 0, 0, M)
        out = contraction_step(u, bounds, ball)
        delta, contained, boundary = bisection_contraction(u, bounds, ball)
        assert abs(out["delta_observed"] - delta) <= 1e-12
        assert out["contained"] == contained
        assert out["boundary_case"] == boundary
        ubar = _ball_node_values(u, *ball).mean(axis=0)
        assert np.array_equal(out["new_center"], out["delta_observed"] * ubar)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.1, 2.5])
    def test_saturated_constant(self, dim, theta):
        grid = GridSpec(dim=dim, h=1 / 16, radius=1.0)
        u = constant_field(grid, [np.cos(theta), np.sin(theta)])
        bounds = GrowthBounds(1, 0, 0, 0, 1.0)
        out = contraction_step(u, bounds, (np.zeros(dim), 0.5))
        assert bisection_contraction(u, bounds, (np.zeros(dim), 0.5)) == (1.0, True, True)
        assert out["delta_observed"] == 1.0 and out["contained"] and out["boundary_case"]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_saturated_spread(self, dim):
        grid = GridSpec(dim=dim, h=1 / 32, radius=1.0)
        th = 0.4 * grid.points()[..., 0]
        u = SampledField(grid, np.stack([np.cos(th), np.sin(th)], axis=-1), zero_rule())
        bounds = GrowthBounds(1, 0, 0, 0, 1.0)
        out = contraction_step(u, bounds, (np.zeros(dim), 0.5))
        assert bisection_contraction(u, bounds, (np.zeros(dim), 0.5)) == (0.0, False, False)
        assert out["delta_observed"] == 0.0
        assert not out["contained"] and not out["boundary_case"]


class TestNodeDistance:
    @pytest.mark.parametrize("dim,h", [(1, 1 / 64), (1, 0.1), (2, 1 / 16), (2, 1 / 12),
                                       (3, 1 / 8)])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_dense_norm(self, dim, h, seed):
        grid = GridSpec(dim=dim, h=h, radius=1.0)
        rng = np.random.default_rng(seed)
        centre = rng.uniform(-0.5, 0.5, size=dim)
        if seed % 2:  # a node as centre puts nodes on the sphere
            centre = np.round(centre / h) * h
        dense = np.linalg.norm(grid.points().reshape(-1, dim) - centre, axis=1)
        dist = _node_distance(grid, centre)
        assert dist.shape == grid.shape
        assert np.array_equal(dist.ravel(), dense)
        for radius in (h, 3 * h, rng.uniform(h, 1.0)):
            assert np.array_equal((dist <= radius + 1e-12).ravel(), dense <= radius + 1e-12)


class TestBallCentreLength:
    grid = GridSpec(dim=2, h=1 / 16, radius=1.0)

    @pytest.mark.parametrize("centre", [[0.3], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_field_average(self, centre):
        u = field_from_function(self.grid, lambda p: p[:, 0], zero_rule(), m=1)
        with pytest.raises(DomainError, match="needs 2 coordinates"):
            field_average(u, (centre, 0.2))

    @pytest.mark.parametrize("centre", [[0.3], [0.0, 0.0, 0.0]])
    def test_contraction_step(self, centre):
        u = constant_field(self.grid, [0.5, 0.0])
        with pytest.raises(DomainError, match="needs 2 coordinates"):
            contraction_step(u, GrowthBounds(1, 0, 0, 0, 1.0), (centre, 0.5))

    @pytest.mark.parametrize("centre", [[0.0], [0.0, 0.0, 0.0]])
    def test_dyadic_ledger(self, centre):
        u = field_from_function(self.grid, lambda p: p[:, 0], zero_rule(), m=1)
        with pytest.raises(DomainError, match="needs 2 coordinates"):
            dyadic_ledger(u, centre, 3, GrowthBounds(1, 0, 0, 0, 2.0))

    @pytest.mark.parametrize("centre", [[0.0], [0.0, 0.0, 0.0]])
    def test_harnack_probe(self, centre):
        h = constant_field(self.grid, [1.0])
        with pytest.raises(DomainError, match="needs 2 coordinates"):
            harnack_probe(h, make_fractional_kernel(2, 0.5), (centre, 0.5))

    def test_one_dimensional_scalar_centre_still_reads(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        u = field_from_function(grid, lambda p: p[:, 0], zero_rule(), m=1)
        assert np.array_equal(field_average(u, (0.25, 0.2)), field_average(u, ([0.25], 0.2)))


class TestHarnackExteriorSign:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rule_negative_beyond_the_nodes_is_refused(self, dim):
        # nonnegative on every stored node (|x|_inf <= 2), negative beyond |x| = 3
        grid = GridSpec(dim=dim, h=1 / 8, radius=1.0)
        rule = callback_rule(
            lambda p: np.where(np.linalg.norm(p, axis=1) > 3.0, -1.0, 1.0)[:, None])
        h = SampledField(grid, np.ones((*grid.shape, 1)), rule)
        with pytest.raises(DomainError, match="exterior rule takes negative values"):
            harnack_probe(h, make_fractional_kernel(dim, 0.5), (np.zeros(dim), 0.5))


class TestLedgerWithoutOscillation:
    @pytest.mark.parametrize("dim,vec", [(1, [0.5]), (2, [0.3, -0.2])])
    def test_constant_field_is_refused(self, dim, vec):
        grid = GridSpec(dim=dim, h=1 / 32, radius=1.0)
        u = constant_field(grid, vec)
        with pytest.raises(DomainError, match="every M_k is 0"):
            dyadic_ledger(u, np.zeros(dim), 3, GrowthBounds(1, 0, 0, 0, 1.0))


class TestFieldWithoutComponents:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_refused(self, dim):
        grid = GridSpec(dim=dim, h=1 / 8, radius=1.0)
        with pytest.raises(DomainError, match="at least one component"):
            SampledField(grid, np.zeros((*grid.shape, 0)), zero_rule())
