import dataclasses
import json

import numpy as np
import pytest

from fracsys import (DomainError, GLConfig, GridSpec, LinearProblem,
                     SolverError, callback_rule, constant_rule,
                     euler_lagrange_residual, gradient_flow_s_harmonic,
                     ginzburg_landau_solve, make_fractional_kernel,
                     radial_projection_rule, s_energy, solve_linear_dirichlet,
                     zero_rule)
from fracsys.cli import main
from fracsys.operators import AssembledOperator, apply_LK_field, assemble_dirichlet
from fracsys.probe import barrier_bound, supersolution_family
from fracsys.solvers import _MAX_REJECTIONS


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
        assert rep.iterations == 0  # zero data: CG stops before its first step

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

    # rhs = 0 with nonzero exterior data (the s-harmonic extension): the
    # system solved is A x = load, so the residual is relative to the load
    EXTENSION_RULES = {"constant": constant_rule([1.0]),
                       "cos": callback_rule(lambda p: np.cos(2.0 * p[:, :1] - p[:, 1:]))}

    @pytest.mark.parametrize("name", list(EXTENSION_RULES))
    def test_extension_residual_is_relative_to_the_system(self, name):
        rule = self.EXTENSION_RULES[name]
        grid, k = GridSpec(dim=2, h=1 / 16, radius=1.0), make_fractional_kernel(2, 0.5)
        v, rep = solve_linear_dirichlet(LinearProblem(k, grid, 0.0, rule))
        assert rep.final_residual <= 1e-12
        op = assemble_dirichlet(k, grid, rule)
        x = np.asarray(v.values).reshape(-1, 1)[op.interior_flat]
        resid = np.max(np.abs(op.load - op.matvec(x)))
        assert rep.final_residual == resid / np.max(np.abs(op.load))

    def test_extension_residual_through_the_cli(self, tmp_path):
        cfg = {"command": "solve-linear", "grid": {"dim": 2, "h": 1 / 16, "radius": 1.0},
               "exterior": "constant:[1.0]", "solver": {"rhs": 0},
               "output_dir": str(tmp_path / "out")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert 0.0 <= report["final_residual"] <= 1e-12

    # the conditioning guard scales with the system b = rhs + load, so large
    # exterior data solve as well as small ones (u = c exactly for rhs = 0)
    @pytest.mark.parametrize("c", [1e10, 1e14])
    def test_large_exterior_data_solve(self, c):
        grid, k = GridSpec(dim=2, h=1 / 16, radius=1.0), make_fractional_kernel(2, 0.5)
        v, rep = solve_linear_dirichlet(LinearProblem(k, grid, 0.0, constant_rule([c])))
        assert np.max(np.abs(np.asarray(v.values) - c)) <= 1e-12 * c
        assert rep.final_residual <= 1e-12

    def test_large_exterior_data_through_the_cli(self, tmp_path):
        cfg = {"command": "solve-linear", "grid": {"dim": 2, "h": 1 / 16, "radius": 1.0},
               "exterior": "constant:[1e10]", "solver": {"rhs": 0},
               "output_dir": str(tmp_path / "out")}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["final_residual"] <= 1e-12

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
        # the implicit step is stable for every positive step, and only there
        grid = grid_b1(h=1 / 32)
        _, rep = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                          steps=10, step_size=1.0)
        assert rep.iterations > 0
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError):
                gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                         steps=10, step_size=bad)

    def test_non_unit_data_rejected(self):
        bad = callback_rule(lambda p: np.stack([2 * np.ones(len(p)),
                                                np.zeros(len(p))], axis=-1))
        with pytest.raises(DomainError):
            gradient_flow_s_harmonic(grid_b1(h=1 / 32), bad, 0.5, m=2)

    @pytest.mark.parametrize("relaxed", [False, True], ids=["projected", "penalized"])
    def test_vanishing_start_names_the_cause(self, relaxed):
        # degree-one data: the linear extension of x/|x| is odd, so it
        # vanishes at the centre and has no projection to the sphere there
        grid, g = GridSpec(dim=2, h=1 / 8, radius=1.0), radial_projection_rule()
        with pytest.raises(SolverError, match="linear extension .* vanishes") as err:
            if relaxed:
                ginzburg_landau_solve(GLConfig(epsilon=1e-2, s=0.5, max_steps=5),
                                      g, grid, m=2)
            else:
                gradient_flow_s_harmonic(grid, g, 0.5, m=2, steps=5)
        node = err.value.diagnostics["node_index"]
        op = assemble_dirichlet(make_fractional_kernel(2, 0.5), grid, g, m=2)
        centre = grid.points().reshape(-1, 2)[op.interior_flat[node]]
        assert np.array_equal(centre, [0.0, 0.0])

    def test_rising_energy_aborts(self, monkeypatch):
        # an energy that rises on every trial (F + c u with c growing per
        # call: the tangential step is unchanged, the energy goes up by
        # (c/2) h sum |u|^2) is rejected, with the step halved each time,
        # until the rejection limit raises
        grid, g = grid_b1(h=1 / 32), phase_rule(2.5)
        op = assemble_dirichlet(make_fractional_kernel(1, 0.5), grid, g, m=2)
        step = 1e3 * 1.5 / op.A[0, 0]
        calls = []
        raw = AssembledOperator.apply_neg_lk

        def rising(self, u_int):
            calls.append(1)
            return raw(self, u_int) + 100.0 * len(calls) * u_int

        monkeypatch.setattr(AssembledOperator, "apply_neg_lk", rising)
        with pytest.raises(SolverError, match="trial steps in a row") as err:
            gradient_flow_s_harmonic(grid, g, 0.5, m=2, steps=2000, step_size=step)
        tail = err.value.diagnostics["trace_tail"]
        assert len(tail) == 2 and tail[-1] > tail[-2]
        assert err.value.diagnostics["step"] == step * 0.5 ** (_MAX_REJECTIONS - 1)
        assert len(calls) == 1 + _MAX_REJECTIONS

    def test_large_step_on_twisted_data_stays_monotone(self):
        # strongly twisted data and a step 10^3 times the old explicit
        # limit: the projected step cannot raise the energy, and the
        # penalized flow's guard halves its step until it does not
        grid, g = grid_b1(h=1 / 32), phase_rule(2.5)
        op = assemble_dirichlet(make_fractional_kernel(1, 0.5), grid, g, m=2)
        step = 1e3 * 1.5 / op.A[0, 0]
        _, rep = gradient_flow_s_harmonic(grid, g, 0.5, m=2, steps=2000,
                                          step_size=step)
        _, gl = ginzburg_landau_solve(GLConfig(epsilon=1e-3, s=0.5), g, grid, m=2)
        for r in (rep, gl):
            tr = np.array(r.energy_trace)
            assert r.iterations > 1
            assert np.all(np.diff(tr) <= 1e-12 * (abs(tr[0]) + 1.0))
        assert rep.constraint_violation <= 1e-12


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

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        # a NaN penalty would end the flow after 0 steps with a NaN residual
        with pytest.raises(DomainError, match="epsilon must be positive and finite"):
            GLConfig(epsilon=eps, s=0.5)


class TestNonFiniteTolerance:
    """A NaN tolerance fails every residual comparison, so the flows would
    return the unconverged start after 0 steps; tol = 0 spends the budget."""

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("relaxed", [False, True], ids=["harmonic", "gl"])
    def test_refused(self, relaxed, tol):
        grid = grid_b1(h=1 / 32)
        with pytest.raises(DomainError, match="tolerance must be finite"):
            if relaxed:
                ginzburg_landau_solve(GLConfig(epsilon=1e-2, s=0.5, tol=tol),
                                      phase_rule(), grid, m=2)
            else:
                gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2, tol=tol)


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
    """Each accepted flow step costs one apply_neg_lk: the trial's
    F = A u - load gives its energy (1/2) u.(F - load), the residual and the
    next step's gradient.  The step's own solve calls matvec."""

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
        # the implicit flow reaches the rounding floor in about 8 steps, so
        # only a budget of 2 is sure to be spent
        budget = 400 if tol > 0 else 2
        if relaxed:
            cfg = GLConfig(epsilon=1e-2, s=0.5, max_steps=budget, tol=tol)
            _, rep = ginzburg_landau_solve(cfg, phase_rule(), grid, m=2)
        else:
            _, rep = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2,
                                              steps=budget, tol=tol)
        assert (rep.iterations < budget) == (tol > 0)
        assert 0 < len(calls) <= rep.iterations + 1


def circulant_oracle(op, x, multiplier):
    """The circulant with Fourier multiplier on op.fft_shape applied to x
    placed in op's box, by a full inverse transform cropped to the box."""
    X = x.reshape(x.shape[0], -1).T
    axes = tuple(range(1, len(op.box) + 1))
    f = np.zeros((X.shape[0], *op.box))
    f[:, op.box_mask] = X
    g = np.fft.irfftn(np.fft.rfftn(f, s=op.fft_shape, axes=axes) * multiplier,
                      s=op.fft_shape, axes=axes)
    g = g[(slice(None),) + tuple(slice(0, n) for n in op.box)][:, op.box_mask]
    return g.T.reshape(x.shape)


class TestShiftedPreconditioner:
    """precondition(x, tau, c) applies circ(1/(1 + tau (diagonal - symbol + c))),
    the multipliers the flows' implicit steps use, bit for bit; without tau it
    is circ(1/(diagonal - symbol))."""

    @pytest.mark.parametrize("dim, m", [(1, 2), (2, 1)])
    def test_matches_multipliers(self, dim, m):
        grid = grid_b1(h=1 / 32) if dim == 1 else GridSpec(dim=2, h=1 / 8, radius=1.0)
        op = assemble_dirichlet(make_fractional_kernel(dim, 0.6), grid, zero_rule(), m=m)
        x = np.random.default_rng(7).normal(size=(op.interior_flat.size, m))
        if m == 1:
            x = x[:, 0]
        S = op.diagonal - op.symbol
        assert np.array_equal(op.precondition(x), circulant_oracle(op, x, 1.0 / S))
        for tau in (1e-3, 0.25):
            assert np.array_equal(op.precondition(x, tau),
                                  circulant_oracle(op, x, 1.0 / (1.0 + tau * S)))
            for c in (0.0, 3.7, 250.0):
                assert np.array_equal(
                    op.precondition(x, tau, c),
                    circulant_oracle(op, x, 1.0 / (1.0 + tau * (op.diagonal - op.symbol + c))))


class TestOneSolve:
    """Every dense interior solve goes through AssembledOperator.solve."""

    def test_indefinite_system_raises_solver_error(self):
        op = assemble_dirichlet(make_fractional_kernel(1, 0.5), grid_b1(h=1 / 32),
                                constant_rule([1.0]))
        with pytest.raises(SolverError) as info:
            # negative definite: CG breaks down on its first step
            dataclasses.replace(op, diagonal=-op.diagonal).solve(op.load)
        assert np.isfinite(info.value.diagnostics["condition_estimate"])

    @pytest.mark.parametrize("grid, rule, m", [
        (grid_b1(h=1 / 64), phase_rule(), 2),
        (GridSpec(dim=2, h=1 / 8, radius=1.0),
         callback_rule(lambda p: np.cos(p[:, :1] + 2.0 * p[:, 1:])), 1),
    ], ids=["1d-m2", "2d-m1"])
    def test_matches_general_solve_and_keeps_A(self, grid, rule, m):
        # the Cholesky solve against LAPACK's general solve, and A untouched
        op = assemble_dirichlet(make_fractional_kernel(grid.dim, 0.5), grid, rule, m=m)
        b = op.load + np.random.default_rng(3).normal(size=op.load.shape)
        A_before = op.A.copy()
        x = op.solve(b)
        ref = np.linalg.solve(op.A, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(op.A, A_before)

    @pytest.mark.parametrize("caller", [
        "linear", "barrier", "supersolution", "harmonic_flow", "gl_flow"])
    def test_each_caller_solves_once(self, monkeypatch, caller):
        calls = []
        raw = AssembledOperator.solve

        def counted(self, b):
            calls.append(1)
            return raw(self, b)

        monkeypatch.setattr(AssembledOperator, "solve", counted)
        grid = grid_b1(h=1 / 32)
        kernel = make_fractional_kernel(1, 0.5)
        if caller == "linear":
            solve_linear_dirichlet(LinearProblem(kernel, grid, 1.0, zero_rule()))
        elif caller == "barrier":
            barrier_bound(grid, kernel)
        elif caller == "supersolution":
            supersolution_family(grid, phase_rule(), m=2)(0.5)
        elif caller == "harmonic_flow":
            gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2, steps=5)
        else:
            ginzburg_landau_solve(GLConfig(epsilon=1e-2, s=0.5, max_steps=5),
                                  phase_rule(), grid, m=2)
        assert len(calls) == 1


def explicit_flow(grid, g, s, tol, eps=None):
    """The explicit flows the implicit step replaced, as an oracle:
    u <- project(u - tau F), or for the penalized flow (eps given) the
    nodewise backward reaction step rho (1 + a (rho^2 - 1)) = |u - tau F|,
    with tau = min(0.5 h^(2s)/Lam, 0.9/diagonal).  Stops when the residual
    falls below tol relative to its first value; returns (field, energy)."""
    kernel = make_fractional_kernel(grid.dim, s)
    op = assemble_dirichlet(kernel, grid, g, m=2)
    tau = min(0.5 * grid.h ** (2 * s) / kernel.Lam, 0.9 / op.diagonal)
    u = op.solve(op.load)
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    resid0 = None
    for _ in range(100000):
        F = op.apply_neg_lk(u)
        mod2 = np.sum(u * u, axis=-1, keepdims=True)
        if eps is None:
            G = F - u * np.sum(u * F, axis=-1, keepdims=True)
        else:
            G = F - (1.0 - mod2) * u / eps
        resid = np.max(np.linalg.norm(G, axis=-1))
        resid0 = resid if resid0 is None else resid0
        if resid <= tol * resid0:
            break
        w = u - tau * F
        wn = np.linalg.norm(w, axis=-1, keepdims=True)
        if eps is None:
            u = w / wn
            continue
        a, rho = tau / eps, np.maximum(wn, 1.0)
        for _ in range(40):
            rho = np.maximum(rho - (rho * (1.0 + a * (rho * rho - 1.0)) - wn)
                             / (1.0 + a * (3.0 * rho * rho - 1.0)), 0.0)
        u = w * (rho / wn)
    else:
        raise AssertionError("explicit oracle did not converge")
    energy = s_energy(op.field(u), s).total
    if eps is not None:
        mod2 = np.sum(u * u, axis=-1)
        energy += op.hvol / (4.0 * eps) * np.sum((1.0 - mod2) ** 2)
    return op.field(u), energy


class TestImplicitFlow:
    """The linearly implicit step against the explicit flows it replaced,
    and at sizes the explicit flows could not reach."""

    @pytest.mark.parametrize("relaxed", [False, True], ids=["projected", "penalized"])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_matches_explicit_oracle(self, s, relaxed):
        grid, g, eps = grid_b1(h=1 / 32), phase_rule(), 1e-2
        if relaxed:
            u, rep = ginzburg_landau_solve(GLConfig(epsilon=eps, s=s, tol=1e-10),
                                           g, grid, m=2)
        else:
            u, rep = gradient_flow_s_harmonic(grid, g, s, m=2, tol=1e-10)
        ref, energy = explicit_flow(grid, g, s, 1e-10, eps if relaxed else None)
        assert np.max(np.abs(np.asarray(u.values) - np.asarray(ref.values))) <= 1e-7
        assert rep.energy_trace[-1] == pytest.approx(energy, rel=1e-10)

    @pytest.mark.parametrize("relaxed", [False, True], ids=["projected", "penalized"])
    def test_fine_line_converges_in_few_steps(self, relaxed):
        grid = grid_b1(h=1 / 1024)
        if relaxed:
            _, rep = ginzburg_landau_solve(GLConfig(epsilon=1e-3, s=0.5, tol=1e-7),
                                           phase_rule(), grid, m=2)
        else:
            _, rep = gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2, tol=1e-7)
        tr = np.array(rep.energy_trace)
        assert 0 < rep.iterations <= 15
        assert np.all(np.diff(tr) <= 1e-12 * (abs(tr[0]) + 1.0))

    @pytest.mark.parametrize("relaxed", [False, True], ids=["projected", "penalized"])
    def test_plane_trace_is_monotone(self, relaxed):
        grid = GridSpec(dim=2, h=1 / 16, radius=1.0)
        if relaxed:
            _, rep = ginzburg_landau_solve(GLConfig(epsilon=1e-3, s=0.9),
                                           phase_rule(), grid, m=2)
        else:
            _, rep = gradient_flow_s_harmonic(grid, phase_rule(), 0.9, m=2)
        tr = np.array(rep.energy_trace)
        assert rep.iterations > 1
        assert np.all(np.diff(tr) <= 1e-12 * (abs(tr[0]) + 1.0))
