import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, GrowthBounds, SampledField,
                     barrier_bound, callback_rule, constant_field,
                     contraction_step, dyadic_ledger, field_from_function,
                     gradient_flow_s_harmonic, harnack_probe, harnack_sweep,
                     head_start_level, supersolution_family,
                     make_custom_kernel, make_fractional_kernel,
                     restrict_rescale, scaling_ledger, sign_rule,
                     smallest_enclosing_ball, structural_audit, zero_rule)
from fracsys.fields import _ball_node_values


def phase_rule(amplitude=0.6):
    def g(pts):
        th = amplitude * np.tanh(pts[:, 0])
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    return callback_rule(g)


class TestStructuralAudit:
    def test_comfortable_case(self):
        out = structural_audit(GrowthBounds(1.0, 0.0, 0.0, 0.0, 1.0))
        assert out == {"structural": 1.0, "satisfied": True, "margin": 1.0}

    def test_sphere_borderline(self):
        out = structural_audit(GrowthBounds(1.0, 0.0, 1.0, 0.0, 1.0))
        assert out["structural"] == 2.0 and not out["satisfied"]

    def test_arithmetic(self):
        out = structural_audit(GrowthBounds(0.5, 0.0, 0.8, 0.0, 2.0))
        assert out["structural"] == pytest.approx(1.8)
        assert out["margin"] == pytest.approx(0.2)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            GrowthBounds(-1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            GrowthBounds(1.0, 0.0, 0.0, 0.0, 0.0)


class TestScalingLedger:
    def test_identity(self):
        b = GrowthBounds(1.0, 0.25, 0.5, 0.125, 1.0)
        out = scaling_ledger(b, 1.0, 1.0, 0.5)
        assert out == b

    def test_amplitude_squares_a_star(self):
        b = GrowthBounds(1.0, 0.0, 0.5, 0.0, 1.0)
        assert scaling_ledger(b, 2.0, 1.0, 0.5).a_star == 2.0

    def test_dyadic_space_scaling_bitwise(self):
        b = GrowthBounds(1.0, 0.25, 0.5, 0.125, 1.0)
        out = scaling_ledger(b, 1.0, 0.5, 0.5)
        assert out.b == 0.125  # mu t^(2s) b with t^(2s) = 1/2 exactly
        assert out.b_star == 0.0625
        assert out.a == 1.0 and out.a_star == 0.5 and out.M == 1.0

    def test_homogeneity_of_structural(self):
        rng = np.random.default_rng(9)
        b = GrowthBounds(0.7, 0.1, 0.9, 0.2, 1.3)
        for _ in range(100):
            mu, t = rng.uniform(0.1, 3.0, size=2)
            out = scaling_ledger(b, mu, t, 0.5)
            assert out.structural == pytest.approx(mu * mu * b.structural, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scaling_ledger(GrowthBounds(1, 0, 0, 0, 1), -1.0, 1.0, 0.5)


class TestHarnack:
    def test_constant_one_has_unit_ratio(self):
        grid = GridSpec(dim=1, h=1 / 32, radius=2.0)
        h = constant_field(grid, [1.0])
        rep = harnack_probe(h, make_fractional_kernel(1, 0.5), (np.zeros(1), 1.0))
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)

    def test_negative_field_rejected(self):
        grid = GridSpec(dim=1, h=1 / 32, radius=2.0)
        f = field_from_function(grid, lambda p: p[:, 0], zero_rule(), m=1)
        with pytest.raises(DomainError):
            harnack_probe(f, make_fractional_kernel(1, 0.5), (np.zeros(1), 1.0))

    def test_subsolution_rejected(self):
        # x^2 is strictly subharmonic for the nonlocal operator too
        grid = GridSpec(dim=1, h=1 / 32, radius=2.0)
        f = field_from_function(grid, lambda p: p[:, 0] ** 2,
                                callback_rule(lambda p: p[:, :1] ** 2), m=1)
        with pytest.raises(DomainError):
            harnack_probe(f, make_fractional_kernel(1, 0.5), (np.zeros(1), 1.0))

    def test_ball_without_nodes_rejected(self):
        grid = GridSpec(dim=1, h=1 / 32, radius=1.0)
        h = constant_field(grid, [1.0])
        with pytest.raises(DomainError, match="no grid nodes"):
            harnack_probe(h, make_fractional_kernel(1, 0.5), (0.013, 0.001))

    def test_ball_beyond_stored_nodes_rejected(self):
        grid = GridSpec(dim=1, h=1 / 32, radius=1.0)
        h = constant_field(grid, [1.0])
        with pytest.raises(DomainError, match="stored-node region"):
            harnack_probe(h, make_fractional_kernel(1, 0.5), (1.9, 0.5))

    def test_shifted_square_sweep_uniform_in_s(self):
        grid = GridSpec(dim=1, h=1 / 64, radius=2.0)
        builder = supersolution_family(grid, phase_rule(), m=2)
        rep = harnack_sweep(builder, (0.5, 0.9), (np.zeros(1), 1.0))
        ratios = np.array(rep.ratios_by_s)
        assert np.all(ratios >= 1.0)
        assert np.max(ratios) / np.min(ratios) < 2.0


class TestContractionStep:
    def test_interior_constant(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        u = constant_field(grid, [0.9 * np.cos(0.3), 0.9 * np.sin(0.3)])
        out = contraction_step(u, GrowthBounds(1, 0, 0, 0, 1.0), (np.zeros(1), 0.5))
        assert out["delta_observed"] > 0 and out["contained"]
        assert not out["boundary_case"]

    def test_saturated_constant_flags_boundary(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        u = constant_field(grid, [1.0, 0.0])
        out = contraction_step(u, GrowthBounds(1, 0, 0, 0, 1.0), (np.zeros(1), 0.5))
        assert out["boundary_case"]

    def test_saturated_spread_gives_no_contraction(self):
        # values on the M-sphere with genuine spread: no delta > 0 contains
        grid = GridSpec(dim=1, h=1 / 64, radius=1.0)
        th = 0.4 * grid.axis()
        vals = np.stack([np.cos(th), np.sin(th)], axis=-1)
        u = SampledField(grid, vals, callback_rule(
            lambda p: np.stack([np.cos(0.4 * p[:, 0]), np.sin(0.4 * p[:, 0])], -1)))
        out = contraction_step(u, GrowthBounds(1, 0, 0, 0, 1.0), (np.zeros(1), 0.5))
        assert out["delta_observed"] < 1e-12
        assert not out["contained"]

    def test_bound_violation_rejected(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        u = constant_field(grid, [2.0, 0.0])
        with pytest.raises(DomainError):
            contraction_step(u, GrowthBounds(1, 0, 0, 0, 1.0), (np.zeros(1), 0.5))

    def test_l_at_least_one_rejected(self):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        u = constant_field(grid, [0.5, 0.0])
        with pytest.raises(DomainError):
            contraction_step(u, GrowthBounds(1, 0, 1.0, 0, 1.0), (np.zeros(1), 0.5))


class TestDyadicLedger:
    def test_lipschitz_line(self):
        grid = GridSpec(dim=1, h=1 / 256, radius=1.5)
        u = field_from_function(grid, lambda p: p[:, 0],
                                callback_rule(lambda p: p[:, :1]), m=1)
        led = dyadic_ledger(u, [0.0], 5, GrowthBounds(1, 0, 0, 0, 2.0), s=0.5)
        assert np.allclose(led.radii, 0.5 ** np.arange(6), rtol=1e-10)
        assert led.alpha_fit == pytest.approx(1.0, rel=0.1)
        assert led.delta_fit == pytest.approx(0.5, rel=1e-6)
        assert led.containment_violation <= 1e-10
        assert led.slack <= 1e-12

    def test_step_function_has_no_decay(self):
        grid = GridSpec(dim=1, h=1 / 256, radius=1.5)
        u = field_from_function(grid, lambda p: np.sign(p[:, 0]), sign_rule(),
                                m=1, bound=1.0)
        led = dyadic_ledger(u, [0.0], 5, GrowthBounds(1, 0, 1, 0, 1.0))
        assert np.allclose(led.radii, 1.0)
        assert led.alpha_fit <= 0.05
        assert led.delta_fit <= 0.05

    def test_square_root_cusp(self):
        grid = GridSpec(dim=1, h=1 / 512, radius=1.5)
        u = field_from_function(grid, lambda p: np.sqrt(np.abs(p[:, 0])),
                                callback_rule(lambda p: np.sqrt(np.abs(p[:, :1]))), m=1)
        led = dyadic_ledger(u, [0.0], 5, GrowthBounds(1, 0, 0, 0, 2.0), s=0.5)
        assert led.alpha_fit == pytest.approx(0.5, rel=0.1)

    def test_matches_ball_image_stats_bit_for_bit(self):
        # every value the ledger reports equals the one built from each
        # level's node values and their smallest enclosing ball
        grid = GridSpec(dim=2, h=1 / 16, radius=1.0)

        def fn(p):
            return np.stack([np.sin(3 * p[:, 0] + p[:, 1]) + 0.5 * p[:, 1] ** 2,
                             p[:, 0] * np.cos(2 * p[:, 1]) + 0.2], axis=-1)

        u = field_from_function(grid, fn, callback_rule(fn), m=2)
        x0 = np.zeros(2)
        led = dyadic_ledger(u, x0, 3, GrowthBounds(1, 0, 0, 0, 2.0), s=0.5)
        vals = [_ball_node_values(u, x0, r) for r in led.ball_radii]
        balls = [smallest_enclosing_ball(v) for v in vals]
        centers = np.array([c for c, _ in balls])
        radii = np.array([r for _, r in balls])
        containment = max([0.0] + [
            float(np.max(np.linalg.norm(
                _ball_node_values(u, x0, led.ball_radii[k + 1]) - centers[k], axis=1)))
            - radii[k] for k in range(3)])
        assert np.array_equal(led.centers, centers)
        assert np.array_equal(led.radii, radii)
        assert led.finest_mean_norm == float(np.linalg.norm(vals[-1].mean(axis=0)))
        assert led.containment_violation == containment

    def test_needs_resolvable_levels(self):
        grid = GridSpec(dim=1, h=1 / 8, radius=1.5)
        u = constant_field(grid, [1.0])
        with pytest.raises(DomainError):
            dyadic_ledger(u, [0.0], 5, GrowthBounds(1, 0, 0, 0, 2.0))

    def test_shift_budget_series(self):
        grid = GridSpec(dim=1, h=1 / 256, radius=1.5)
        u = field_from_function(grid, lambda p: 0.5 * p[:, 0],
                                callback_rule(lambda p: 0.5 * p[:, :1]), m=1)
        led = dyadic_ledger(u, [0.0], 4, GrowthBounds(1, 0.1, 0, 0.1, 1.0), s=0.5)
        expect = np.cumsum(2.0 ** (-0.5 * np.arange(5)))
        expect[0] = 0.0
        assert np.allclose(led.shift_budget, expect)

    def test_ordering_sanity(self):
        # a smooth field decays strictly faster than the step at the origin
        grid = GridSpec(dim=1, h=1 / 256, radius=1.5)
        smooth = field_from_function(grid, lambda p: np.sin(p[:, 0]),
                                     callback_rule(lambda p: np.sin(p[:, :1])), m=1)
        step = field_from_function(grid, lambda p: np.sign(p[:, 0]), sign_rule(), m=1)
        a1 = dyadic_ledger(smooth, [0.0], 5, GrowthBounds(1, 0, 0, 0, 2.0)).alpha_fit
        a2 = dyadic_ledger(step, [0.0], 5, GrowthBounds(1, 0, 1, 0, 1.0)).alpha_fit
        assert a1 >= a2


class TestHeadStart:
    def test_zero_b_means_no_head_start(self):
        assert head_start_level(GrowthBounds(1, 0, 0, 0, 1.0), 2.0, 0.3, 0.5) == 0

    def test_formula(self):
        b = GrowthBounds(1.0, 0.5, 0.2, 0.0, 1.0)
        tau, delta, s = 2.0, 0.25, 0.5
        d = head_start_level(b, tau, delta, s)
        cap = min(1.0 - b.l, (2**s - 1) / 2**s * b.M * delta)
        assert 2.0 ** (-d) * b.b * tau * (1 + b.M) <= cap
        if d > 0:
            assert 2.0 ** (-(d - 1)) * b.b * tau * (1 + b.M) > cap


class TestBarrier:
    def test_nonpositive_and_uniform_in_s(self):
        grid = GridSpec(dim=1, h=1 / 64, radius=2.0)
        sups = []
        for s in (0.5, 0.7, 0.9):
            out = barrier_bound(grid, make_fractional_kernel(1, s))
            assert np.max(np.asarray(out["v"].values)) <= 1e-14
            assert out["tau"] == pytest.approx(2.0 * out["L_bound"])
            sups.append(out["L_bound"])
        assert max(sups) / min(sups) < 2.0

    def test_stronger_kernel_shrinks_barrier(self):
        grid = GridSpec(dim=1, h=1 / 64, radius=2.0)
        base = make_fractional_kernel(1, 0.5)
        double = make_custom_kernel(lambda r: 2.0 * base(r), 0.5, 1,
                                    2.0 * base.lam, 2.0 * base.Lam)
        v1 = np.abs(np.asarray(barrier_bound(grid, base)["v"].values))
        v2 = np.abs(np.asarray(barrier_bound(grid, double)["v"].values))
        assert np.all(v2 <= v1 + 1e-12)


class TestContractionOnSolvedField:
    def test_scaled_flow_field_contracts_and_sweep_monotone(self):
        grid = GridSpec(dim=1, h=1 / 64, radius=1.0)
        u, _ = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                        steps=4000, tol=1e-7)
        scaled = restrict_rescale(u, 0.9, 1.0)
        bounds = GrowthBounds(a=0.9, b=0.0, a_star=0.81, b_star=0.0, M=1.0)
        out = contraction_step(scaled, bounds, (np.zeros(1), 0.5))
        assert out["delta_observed"] > 0
        deltas = []
        for l in (0.3, 0.5, 0.7, 0.9):
            fill = restrict_rescale(u, 0.5 * (1.0 + l), 1.0)
            b = GrowthBounds(a=1.0, b=0.0, a_star=max(0.0, 2 * l - 1.0),
                             b_star=0.0, M=1.0)
            deltas.append(contraction_step(fill, b, (np.zeros(1), 0.5))["delta_observed"])
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
