"""Refusals and solver guards, each reached by one input: the flows' step
budget, the conjugate-gradient guards, the KernelSpec refusals and the
linear solve's conditioning guard."""

import json

import numpy as np
import pytest

from fracsys import (DomainError, GLConfig, GridSpec, KernelSpec, LinearProblem,
                     SolverError, callback_rule, ginzburg_landau_solve,
                     gradient_flow_s_harmonic, make_fractional_kernel,
                     solve_linear_dirichlet, zero_rule)
from fracsys.cli import main
from fracsys.operators import _cg


def phase_rule(amplitude=0.6):
    def g(pts):
        th = amplitude * np.tanh(pts[:, 0])
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    return callback_rule(g)


def flow(relaxed, steps):
    grid = GridSpec(dim=1, h=1 / 32, radius=1.0)
    if relaxed:
        return ginzburg_landau_solve(GLConfig(epsilon=1e-2, s=0.5, max_steps=steps),
                                     phase_rule(), grid, m=2)
    return gradient_flow_s_harmonic(grid, phase_rule(), 0.5, m=2, steps=steps)


class TestStepBudget:
    """`while k < steps` runs no step for a NaN or negative budget and
    rounds a fractional one up, so each is refused, naming the value."""

    @pytest.mark.parametrize("steps", [np.nan, -1, 2.5], ids=["nan", "negative", "fractional"])
    @pytest.mark.parametrize("relaxed", [False, True], ids=["harmonic", "gl"])
    def test_refused(self, relaxed, steps):
        with pytest.raises(DomainError, match=f"step budget .*got {steps}"):
            flow(relaxed, steps)

    @pytest.mark.parametrize("relaxed", [False, True], ids=["harmonic", "gl"])
    def test_zero_steps_return_the_start(self, relaxed):
        _, rep = flow(relaxed, 0)
        assert rep.iterations == 0
        assert len(rep.energy_trace) == 1

    @pytest.mark.parametrize("relaxed", [False, True], ids=["harmonic", "gl"])
    def test_numpy_integer_budget(self, relaxed):
        _, rep = flow(relaxed, np.int64(2))
        assert rep.iterations == 2


class TestConjugateGradientGuards:
    def test_non_finite_right_hand_side(self):
        with pytest.raises(SolverError, match="right-hand side .* not finite") as err:
            _cg(lambda x: x, lambda r: r, np.array([1.0, np.nan]), 1.0)
        assert err.value.diagnostics == {"condition_estimate": 1.0}

    def test_no_convergence_in_n_iterations(self):
        # condition 1e14 on 12 unknowns: 12 unpreconditioned steps do not
        # reach the 1e-13 relative residual in floating point
        d = np.logspace(0, 14, 12)
        with pytest.raises(SolverError, match="did not converge in 12 iterations") as err:
            _cg(lambda x: d[:, None] * x, lambda r: r, np.ones(12), 1e14)
        assert err.value.diagnostics == {"iterations": 12, "condition_estimate": 1e14}


class TestKernelSpecRefusals:
    @pytest.mark.parametrize("changes, message", [
        ({"s": 1.0}, "order parameter out of range"),
        ({"dim": 0}, "dimension must be >= 1"),
        ({"lam": 2.0, "Lam": 1.0}, "need 0 < lam <= Lam"),
        ({"kind": "gaussian"}, "unknown kernel kind: 'gaussian'"),
        ({"kind": "anisotropic"}, "anisotropic kernel requires a matrix"),
        ({"kind": "custom"}, "custom kernel requires a radial profile"),
    ], ids=["order", "dim", "bounds", "kind", "matrix", "profile"])
    def test_refused(self, changes, message):
        fields = {"kind": "fractional", "s": 0.5, "dim": 1, "lam": 1.0, "Lam": 1.0,
                  **changes}
        with pytest.raises(DomainError, match=message):
            KernelSpec(**fields)


def test_linear_solve_conditioning_guard():
    # |b| = 1e200 overflows CG's squared norms to inf, so CG stops at x = 0
    # after no iteration; the guard sees the residual max|b| and refuses
    problem = LinearProblem(make_fractional_kernel(1, 0.5),
                            GridSpec(dim=1, h=1 / 16, radius=1.0), 1e200, zero_rule())
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError, match="ill-conditioned interior system") as err:
            solve_linear_dirichlet(problem)
    assert set(err.value.diagnostics) == {"condition_estimate"}


@pytest.mark.parametrize("command", ["solve-harmonic", "solve-gl"])
def test_negative_budget_through_the_cli(tmp_path, capsys, command):
    cfg = {"command": command, "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0},
           "solver": {"steps": -1}, "output_dir": str(tmp_path / "out")}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "cfg.json")]) == 2
    assert "step budget must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
