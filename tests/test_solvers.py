import numpy as np
import pytest

from fracsys import (DomainError, GLConfig, GridSpec, LinearProblem,
                     SolverError, callback_rule, constant_rule,
                     euler_lagrange_residual, gradient_flow_s_harmonic,
                     ginzburg_landau_solve, make_fractional_kernel, s_energy,
                     solve_linear_dirichlet, zero_rule)
from fracsys.operators import apply_LK_field


def phase_rule(amplitude=0.6):
    def g(pts):
        th = amplitude * np.tanh(pts[:, 0])
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    return callback_rule(g)


def grid_b1(h=1 / 64):
    return GridSpec(dim=1, h=h, radius=1.0)


class TestLinearDirichlet:
    def test_zero_data_gives_zero(self):
        p = LinearProblem(make_fractional_kernel(1, 0.5), grid_b1(), 0.0, zero_rule())
        v, rep = solve_linear_dirichlet(p)
        assert np.max(np.abs(v.values)) < 1e-12
        assert rep.iterations == 1

    def test_negative_source_stays_negative(self):
        p = LinearProblem(make_fractional_kernel(1, 0.5), grid_b1(), -1.0, zero_rule())
        v, _ = solve_linear_dirichlet(p)
        assert np.max(np.asarray(v.values)) <= 1e-14

    def test_residual_bound(self):
        p = LinearProblem(make_fractional_kernel(1, 0.7), grid_b1(), 1.0, zero_rule())
        v, rep = solve_linear_dirichlet(p)
        assert rep.final_residual <= 1e-8
        # cross-check with the pointwise operator: -L v = rhs at interior nodes
        lvals, _ = apply_LK_field(v, make_fractional_kernel(1, 0.7))
        mask = v.grid.interior_mask()
        assert np.max(np.abs(-lvals[..., 0][mask] - 1.0)) <= 1e-8

    def test_known_profile_ratio(self):
        # rhs = 1 on the unit ball at s = 1/2: solution proportional to
        # (1 - x^2)^(1/2)
        p = LinearProblem(make_fractional_kernel(1, 0.5), grid_b1(h=1 / 256),
                          1.0, zero_rule())
        v, _ = solve_linear_dirichlet(p)
        x = v.grid.axis()
        sel = np.abs(x) <= 0.8
        ratio = np.asarray(v.values)[sel, 0] / np.sqrt(1.0 - x[sel] ** 2)
        assert np.std(ratio) / np.mean(ratio) < 0.02

    def test_maximum_principle_random(self):
        rng = np.random.default_rng(0)
        grid = grid_b1(h=1 / 32)
        pts_template = grid.points().reshape(-1)
        coeffs = rng.uniform(0.2, 1.5, size=3)

        def rhs(p):
            return -(coeffs[0] + coeffs[1] * p[:, 0] ** 2 + coeffs[2] * np.cos(p[:, 0]))

        prob = LinearProblem(make_fractional_kernel(1, 0.6), grid, rhs,
                             constant_rule([-0.3]))
        v, _ = solve_linear_dirichlet(prob)
        assert np.max(np.asarray(v.values)) <= 1e-12

    def test_monotone_in_source(self):
        rng = np.random.default_rng(1)
        grid = grid_b1(h=1 / 32)
        for _ in range(4):
            base = rng.normal(size=3)

            def rhs1(p):
                return base[0] + base[1] * np.sin(p[:, 0])

            def rhs2(p):
                return rhs1(p) + 0.5 + 0.3 * np.cos(p[:, 0])  # rhs2 >= rhs1

            k = make_fractional_kernel(1, 0.5)
            v1, _ = solve_linear_dirichlet(LinearProblem(k, grid, rhs1, zero_rule()))
            v2, _ = solve_linear_dirichlet(LinearProblem(k, grid, rhs2, zero_rule()))
            assert np.all(np.asarray(v2.values) >= np.asarray(v1.values) - 1e-12)

    def test_dense_cap(self):
        with pytest.raises(DomainError):
            solve_linear_dirichlet(LinearProblem(
                make_fractional_kernel(1, 0.5),
                GridSpec(dim=1, h=1e-4, radius=1.0), 1.0, zero_rule()))


class TestHarmonicFlow:
    def test_constant_data_is_fixed_point(self):
        g = constant_rule([1.0, 0.0])
        u, rep = gradient_flow_s_harmonic(grid_b1(h=1 / 32), g, 0.5, m=2, steps=50)
        assert np.allclose(np.asarray(u.values)[..., 0], 1.0, atol=1e-10)
        assert rep.final_residual < 1e-10

    def test_smooth_data_converges(self):
        u, rep = gradient_flow_s_harmonic(grid_b1(), phase_rule(), 0.5, m=2,
                                          steps=5000, tol=1e-7)
        assert rep.constraint_violation <= 1e-12
        trace = np.array(rep.energy_trace)
        assert np.all(np.diff(trace) <= 1e-10 * abs(trace[0]))
        resid = euler_lagrange_residual(u, 0.5)
        lap, _ = apply_LK_field(u, make_fractional_kernel(1, 0.5))
        scale = np.max(np.linalg.norm(lap, axis=-1))
        mask = u.grid.interior_mask()
        assert np.max(np.asarray(resid.values)[mask]) <= 1e-5 * scale

    def test_energy_trace_matches_direct_energy(self):
        # the quadratic-form trace must agree with s_energy on the snapshots
        u, rep = gradient_flow_s_harmonic(grid_b1(h=1 / 32), phase_rule(), 0.5,
                                          m=2, steps=60, tol=0.0)
        direct = s_energy(u, 0.5).total
        assert rep.energy_trace[-1] == pytest.approx(direct, rel=1e-10)

    def test_step_size_guard(self):
        with pytest.raises(DomainError):
            gradient_flow_s_harmonic(grid_b1(h=1 / 32), phase_rule(), 0.5, m=2,
                                     steps=10, step_size=1.0)

    def test_non_unit_data_rejected(self):
        bad = callback_rule(lambda p: np.stack([2 * np.ones(len(p)),
                                                np.zeros(len(p))], axis=-1))
        with pytest.raises(DomainError):
            gradient_flow_s_harmonic(grid_b1(h=1 / 32), bad, 0.5, m=2)


class TestGinzburgLandau:
    def test_constant_data_exact_fixed_point(self):
        cfg = GLConfig(epsilon=1e-2, s=0.5, max_steps=100)
        v, rep = ginzburg_landau_solve(cfg, constant_rule([0.0, 1.0]),
                                       grid_b1(h=1 / 32), m=2)
        assert np.allclose(np.asarray(v.values)[..., 1], 1.0, atol=1e-10)

    def test_modulus_defect_shrinks_with_epsilon(self):
        defects = []
        for eps in (4e-3, 2e-3, 1e-3):
            cfg = GLConfig(epsilon=eps, s=0.5, max_steps=8000, tol=1e-7)
            v, rep = ginzburg_landau_solve(cfg, phase_rule(), grid_b1(h=1 / 32), m=2)
            mask = v.grid.interior_mask()
            mod = np.linalg.norm(np.asarray(v.values), axis=-1)[mask]
            defects.append(np.max(np.abs(mod - 1.0)))
        assert defects[2] <= defects[1] <= defects[0]

    def test_matches_constrained_flow(self):
        grid = grid_b1()
        cfg = GLConfig(epsilon=1e-3, s=0.5, max_steps=20000, tol=1e-7)
        v, _ = ginzburg_landau_solve(cfg, phase_rule(), grid, m=2)
        u, _ = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                        steps=8000, tol=1e-7)
        sel = np.abs(grid.axis()) <= 0.5
        diff = np.max(np.abs(np.asarray(v.values)[sel] - np.asarray(u.values)[sel]))
        assert diff < 0.02

    def test_energy_trace_matches_direct_energy(self):
        # twin of the harmonic-flow check: the trace is the penalized energy
        eps = 1e-2
        cfg = GLConfig(epsilon=eps, s=0.5, max_steps=60, tol=0.0)
        v, rep = ginzburg_landau_solve(cfg, phase_rule(), grid_b1(h=1 / 32), m=2)
        mask = v.grid.interior_mask()
        mod2 = np.sum(np.asarray(v.values) ** 2, axis=-1)[mask]
        hvol = v.grid.h**v.grid.dim
        direct = s_energy(v, 0.5).total + hvol / (4 * eps) * np.sum((1 - mod2) ** 2)
        assert rep.energy_trace[-1] == pytest.approx(direct, rel=1e-10)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(DomainError):
            GLConfig(epsilon=-1.0, s=0.5)


class TestEulerLagrangeResidual:
    def test_constant_unit_field(self):
        from fracsys import constant_field

        f = constant_field(grid_b1(h=1 / 32), [0.0, 1.0])
        r = euler_lagrange_residual(f, 0.5)
        mask = f.grid.interior_mask()
        assert np.max(np.asarray(r.values)[mask]) < 1e-12

    def test_modulus_violation_rejected(self):
        from fracsys import constant_field

        f = constant_field(grid_b1(h=1 / 32), [0.0, 0.5])
        with pytest.raises(DomainError):
            euler_lagrange_residual(f, 0.5)


class TestTwoDimensionalSolve:
    def test_maximum_principle_and_residual_2d(self):
        grid = GridSpec(dim=2, h=1 / 8, radius=1.0)
        k = make_fractional_kernel(2, 0.5)
        v, rep = solve_linear_dirichlet(LinearProblem(k, grid, -1.0, zero_rule()))
        assert np.max(np.asarray(v.values)) <= 1e-12
        assert rep.final_residual <= 1e-8
        # cross-check against the pointwise operator on the same weights
        lvals, _ = apply_LK_field(v, k)
        mask = grid.interior_mask()
        assert np.max(np.abs(-lvals[..., 0][mask] + 1.0)) <= 1e-8

    def test_radial_symmetry_2d(self):
        grid = GridSpec(dim=2, h=1 / 8, radius=1.0)
        k = make_fractional_kernel(2, 0.6)
        v, _ = solve_linear_dirichlet(LinearProblem(k, grid, 1.0, zero_rule()))
        vals = np.asarray(v.values)[..., 0]
        # the solution inherits the four-fold symmetry of the problem
        assert np.allclose(vals, vals[::-1, :], atol=1e-10)
        assert np.allclose(vals, vals.T, atol=1e-10)


class TestFlowAcrossOrders:
    @pytest.mark.parametrize("s", [0.1, 0.3, 0.8])
    def test_monotone_energy_any_order(self, s):
        u, rep = gradient_flow_s_harmonic(grid_b1(h=1 / 32), phase_rule(), s,
                                          m=2, steps=30000, tol=1e-6)
        tr = np.array(rep.energy_trace)
        assert np.all(np.diff(tr) <= 1e-10 * abs(tr[0]))
        assert rep.constraint_violation <= 1e-12


class TestFlowMatvecs:
    """Each flow step costs one dense matvec: its F = A u - load gives the
    step, the residual and the energy (1/2) u.(F - load)."""

    @staticmethod
    def _count(monkeypatch):
        from fracsys.operators import AssembledOperator

        calls = []
        for name in ("apply_neg_lk", "energy_quadratic"):
            raw = getattr(AssembledOperator, name)

            def counted(self, u_int, _raw=raw):
                calls.append(1)
                return _raw(self, u_int)

            monkeypatch.setattr(AssembledOperator, name, counted)
        return calls

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("tol", [0.0, 1e-4])  # budget spent / converged
    def test_one_matvec_per_step(self, monkeypatch, relaxed, tol):
        calls = self._count(monkeypatch)
        grid = grid_b1(h=1 / 32)
        if relaxed:
            cfg = GLConfig(epsilon=1e-2, s=0.5, max_steps=400, tol=tol)
            _, rep = ginzburg_landau_solve(cfg, phase_rule(), grid, m=2)
        else:
            _, rep = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                              steps=400, tol=tol)
        assert (rep.iterations < 400) == (tol > 0)
        assert 0 < len(calls) <= rep.iterations + 1
