import json

import numpy as np
import pytest

from fracsys import (DomainError, GridSpec, GrowthBounds, LinearProblem, SolverError,
                     canonical_json, constant_field, dyadic_ledger, emit_report,
                     field_from_function, make_anisotropic_kernel, periodic_rule,
                     read_field_fsf1, s_limit_isotropic, sign_rule, solve_linear_dirichlet,
                     write_field_csv, write_field_fsf1, zero_rule)
from fracsys.cli import main
from fracsys.solvers import SolveReport


class TestCanonicalJson:
    def test_sorted_keys_and_fixed_floats(self):
        s = canonical_json({"b": 0.1, "a": 1.0 / 3.0})
        assert s.index('"a"') < s.index('"b"')
        assert "0.33333333333333331" in s

    def test_deterministic(self):
        rep = SolveReport(iterations=3, final_residual=1e-9,
                          energy_trace=(1.0, 0.5), constraint_violation=0.0)
        assert canonical_json(rep) == canonical_json(rep)

    def test_emit_twice_byte_identical(self, tmp_path):
        rep = {"x": np.pi, "flag": True, "seq": [1, 2.5]}
        p1 = emit_report(rep, tmp_path / "a.json")
        p2 = emit_report(rep, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_ledger_gets_csv_companion(self, tmp_path):
        grid = GridSpec(dim=1, h=1 / 256, radius=1.5)
        u = field_from_function(grid, lambda p: np.sign(p[:, 0]), sign_rule(), m=1)
        led = dyadic_ledger(u, [0.0], 4, GrowthBounds(1, 0, 1, 0, 1.0))
        emit_report(led, tmp_path / "ledger.json")
        csv = (tmp_path / "ledger.csv").read_text().splitlines()
        assert csv[0].startswith("k,ball_radius,M_k,rho_k_0")
        assert len(csv) == 6

    def test_harnack_csv_one_row_per_s(self, tmp_path):
        from fracsys import HarnackReport

        rep = HarnackReport(ratio=2.0, s_values=(0.5, 0.7), ratios_by_s=(1.5, 2.0))
        emit_report(rep, tmp_path / "h.json")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "s,ratio"
        assert len(lines) == 3


class TestFieldFiles:
    def test_fsf1_roundtrip(self, tmp_path):
        grid = GridSpec(dim=1, h=1 / 16, radius=1.0)
        rng = np.random.default_rng(0)
        from fracsys import SampledField

        f = SampledField(grid, rng.normal(size=(*grid.shape, 2)), zero_rule())
        path = write_field_fsf1(tmp_path / "f.fsf1", f)
        assert path.read_bytes()[:4] == b"FSF1"
        g = read_field_fsf1(path)
        assert g.grid == f.grid
        assert np.array_equal(np.asarray(g.values), np.asarray(f.values))

    @pytest.mark.parametrize("grid", [
        GridSpec(dim=1, h=0.3, radius=1.0),
        GridSpec(dim=1, h=1 / 16, radius=1.0, truncation_radius=8.0),
    ], ids=["radius", "truncation_radius"])
    def test_fsf1_refuses_lossy_grid(self, tmp_path, grid):
        # read back, these would come out with radius 0.9 and truncation radius 4
        with pytest.raises(DomainError):
            write_field_fsf1(tmp_path / "f.fsf1", constant_field(grid, [1.0]))
        assert not (tmp_path / "f.fsf1").exists()

    def test_csv_layout(self, tmp_path):
        f = constant_field(GridSpec(dim=1, h=0.5, radius=1.0), [1.0, 2.0])
        path = write_field_csv(tmp_path / "f.csv", f)
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,u0,u1"
        assert len(lines) == 1 + f.grid.shape[0]


class TestCli:
    def _write_cfg(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_audit_borderline_exits_one(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "audit",
            "bounds": {"a": 1.0, "a_star": 1.0, "M": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["audit", "--config", cfg]) == 1
        data = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert data["structural"] == 2.0 and data["satisfied"] is False

    def test_bad_order_parameter_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "limit",
            "kernel": {"s": 1.5},
            "grid": {"dim": 1, "h": 2 * np.pi / 64, "radius": np.pi, "periodic": True},
            "s_values": [1.5],
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["limit", "--config", cfg]) == 2
        assert "order parameter out of range" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {"command": "frobnicate"})
        assert main([None, "--config", cfg] if False else ["frobnicate", "--config", cfg]) == 2

    def test_verify_default_suite(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {"command": "verify", "output_dir": str(out),
                                         "seed": 3})
        assert main(["verify", "--config", cfg]) == 0
        verdicts = json.loads((out / "verify.json").read_text())["verdicts"]
        names = {v["name"] for v in verdicts}
        assert names == {"square_identity", "sign_algebra", "counterexample", "s_limit"}
        assert all(v["pass"] for v in verdicts)

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            cfg = self._write_cfg(tmp_path, {
                "command": "verify", "output_dir": str(out), "seed": 11})
            assert main(["verify", "--config", cfg]) == 0
            outs.append((out / "verify.json").read_bytes())
        assert outs[0] == outs[1]

    def test_solve_linear_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "kernel": {"kind": "fractional", "s": 0.5},
            "grid": {"dim": 1, "h": 1 / 64, "radius": 1.0},
            "solver": {"rhs": 1.0},
            "exterior": "zero",
            "output_dir": str(out),
        })
        assert main(["solve-linear", "--config", cfg]) == 0
        assert (out / "field.csv").exists()
        assert (out / "field.fsf1").exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["final_residual"] <= 1e-8

    def test_solve_linear_lossy_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "kernel": {"kind": "fractional", "s": 0.5},
            "grid": {"dim": 1, "h": 1 / 64, "radius": 1.0, "truncation_radius": 8},
            "solver": {"rhs": 1.0},
            "exterior": "zero",
            "output_dir": str(out),
        })
        assert main(["solve-linear", "--config", cfg]) == 2
        assert not (out / "field.fsf1").exists()
        assert not (out / "field.csv").exists()
        assert "FSF1" in capsys.readouterr().err

    def test_solve_harmonic_lossy_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-harmonic",
            "kernel": {"s": 0.5},
            "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0, "truncation_radius": 8},
            "solver": {"steps": 2000, "tol": 1e-6, "amplitude": 0.5},
            "output_dir": str(out),
        })
        assert main(["solve-harmonic", "--config", cfg]) == 2
        assert not (out / "field.csv").exists()
        assert not (out / "field.fsf1").exists()
        assert "FSF1" in capsys.readouterr().err

    def test_non_numeric_grid_step_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "grid": {"dim": 1, "h": "x", "radius": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["solve-linear", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "grid.h" in err

    def test_non_numeric_amplitude_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-harmonic",
            "kernel": {"s": 0.5},
            "grid": {"dim": 1, "h": 1 / 16, "radius": 1.0},
            "solver": {"steps": 50, "amplitude": "$amplitude"},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["solve-harmonic", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "solver.amplitude" in err

    @pytest.mark.parametrize("command,section,good,bad", [
        ("solve-linear", "kernel", {"kind": "fractional", "s": 0.5}, "matrx"),
        ("solve-linear", "grid", {"dim": 1, "h": 1 / 16, "radius": 1.0}, "hh"),
        ("solve-linear", "solver", {"rhs": 1.0}, "rhz"),
        ("audit", "bounds", {"a": 1.0, "a_star": 0.0, "M": 1.0}, "MM"),
    ], ids=["kernel", "grid", "solver", "bounds"])
    def test_unknown_section_key_exits_two(self, tmp_path, capsys, command, section,
                                           good, bad):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": command,
            "grid": {"dim": 1, "h": 1 / 16, "radius": 1.0},
            section: {**good, bad: 1.0},
            "output_dir": str(out),
        })
        assert main([command, "--config", cfg]) == 2
        assert f"{section}.{bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_error_exits_three_with_diagnostics(self, tmp_path, monkeypatch,
                                                       capsys):
        def fail(problem):
            raise SolverError("interior system could not be factorized",
                              condition_estimate=1e17)

        monkeypatch.setattr("fracsys.cli.solve_linear_dirichlet", fail)
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "kernel": {"kind": "fractional", "s": 0.5},
            "grid": {"dim": 1, "h": 1 / 64, "radius": 1.0},
            "output_dir": str(out),
        })
        assert main(["solve-linear", "--config", cfg]) == 3
        err = json.loads((out / "error.json").read_text())
        assert err["diagnostics"]["condition_estimate"] == 1e17
        assert "could not be factorized" in err["message"]
        assert "solver error" in capsys.readouterr().err

    def test_probe_decay_sign(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "probe-decay",
            "grid": {"dim": 1, "h": 1 / 256, "radius": 1.5},
            "bounds": {"a": 1.0, "a_star": 1.0, "M": 1.0},
            "field_profile": "sign",
            "solver": {"levels": 5},
            "output_dir": str(out),
        })
        assert main(["probe-decay", "--config", cfg]) == 0
        led = json.loads((out / "decay_ledger.json").read_text())
        assert led["alpha_fit"] <= 0.05
        assert (out / "decay_ledger.csv").exists()

    def test_command_override_and_out_override(self, tmp_path):
        out = tmp_path / "elsewhere"
        cfg = self._write_cfg(tmp_path, {
            "command": "verify",
            "bounds": {"a": 1.0, "a_star": 0.0, "M": 1.0},
            "output_dir": str(tmp_path / "ignored"),
        })
        assert main(["audit", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "audit.json").exists()

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["audit", "--config", str(tmp_path / "none.json")]) == 2

    def test_solve_harmonic_small(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-harmonic",
            "kernel": {"s": 0.5},
            "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0},
            "solver": {"steps": 2000, "tol": 1e-6, "amplitude": 0.5},
            "output_dir": str(out),
        })
        assert main(["solve-harmonic", "--config", cfg]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["constraint_violation"] <= 1e-12
        assert (out / "energy_trace.csv").exists()


class TestCliMore:
    def _write_cfg(self, tmp_path, payload):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"command": "audit", "bogus_key": 1})
        assert main(["audit", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_kernel_ellipticity_mismatch_rejected(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "kernel": {"kind": "fractional", "s": 0.5, "lambda": 99.0},
            "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["solve-linear", "--config", cfg]) == 2

    def test_missing_exterior_rule_distinct_diagnostic(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0},
            "exterior": "not-a-rule",
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["solve-linear", "--config", cfg]) == 2
        assert "exterior rule" in capsys.readouterr().err

    def test_solve_gl(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-gl",
            "kernel": {"s": 0.5},
            "grid": {"dim": 1, "h": 1 / 32, "radius": 1.0},
            "solver": {"steps": 4000, "epsilon": 5e-3, "amplitude": 0.5},
            "output_dir": str(out),
        })
        assert main(["solve-gl", "--config", cfg]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["constraint_violation"] < 0.05

    def test_probe_harnack(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "probe-harnack",
            "grid": {"dim": 1, "h": 1 / 64, "radius": 2.0},
            "s_values": [0.5, 0.9],
            "output_dir": str(out),
        })
        assert main(["probe-harnack", "--config", cfg]) == 0
        rep = json.loads((out / "harnack.json").read_text())
        assert len(rep["ratios_by_s"]) == 2
        assert (out / "harnack.csv").exists()

    @pytest.mark.parametrize("command, kind", [
        ("solve-harmonic", "anisotropic"), ("solve-gl", "bogus"),
        ("probe-harnack", "anisotropic")])
    def test_non_fractional_kernel_rejected(self, tmp_path, capsys, command, kind):
        # these commands build the fractional kernel; any other kind is refused
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": command,
            "kernel": {"kind": kind, "s": 0.5, "matrix": [[2.0]]},
            "grid": {"dim": 1, "h": 1 / 16, "radius": 1.0},
            "solver": {"steps": 50},
            "output_dir": str(out),
        })
        assert main([command, "--config", cfg]) == 2
        assert "fractional kernel" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_solve_linear_anisotropic_kernel(self, tmp_path):
        out = tmp_path / "out"
        matrix = [[1.5, 0.3], [0.2, 0.8]]
        cfg = self._write_cfg(tmp_path, {
            "command": "solve-linear",
            "kernel": {"kind": "anisotropic", "s": 0.6, "matrix": matrix},
            "grid": {"dim": 2, "h": 1 / 8, "radius": 1.0},
            "solver": {"rhs": 1.0},
            "output_dir": str(out),
        })
        assert main(["solve-linear", "--config", cfg]) == 0
        grid = GridSpec(dim=2, h=1 / 8, radius=1.0)
        direct, _ = solve_linear_dirichlet(LinearProblem(
            make_anisotropic_kernel(np.asarray(matrix), 0.6), grid, 1.0, zero_rule()))
        written = read_field_fsf1(out / "field.fsf1")
        assert np.array_equal(np.asarray(written.values), np.asarray(direct.values))
        assert json.loads((out / "report.json").read_text())["final_residual"] <= 1e-8

    def test_limit_1d_isotropic(self, tmp_path):
        out = tmp_path / "out"
        h = 2 * np.pi / 1024
        cfg = self._write_cfg(tmp_path, {
            "command": "limit",
            "grid": {"dim": 1, "h": h, "radius": np.pi, "periodic": True},
            "output_dir": str(out),
        })
        assert main(["limit", "--config", cfg]) == 0
        rep = json.loads((out / "limit.json").read_text())
        grid = GridSpec(dim=1, h=h, radius=np.pi, periodic=True)
        v = field_from_function(grid, lambda p: np.cos(2 * p[:, 0]), periodic_rule(), m=1)
        direct = s_limit_isotropic(v, (0.9, 0.95, 0.99))
        assert rep["s_values"] == [0.9, 0.95, 0.99]
        assert rep["errors"] == list(direct.errors)
        assert abs(rep["fitted_rate"] - 1.0) <= 0.2

    def test_limit_2d_anisotropic(self, tmp_path):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, {
            "command": "limit",
            "kernel": {"kind": "anisotropic", "matrix": [[2.0, 0.0], [0.0, 1.0]]},
            "grid": {"dim": 2, "h": 2 * np.pi / 64, "radius": np.pi, "periodic": True},
            "s_values": [0.9, 0.95, 0.99],
            "solver": {"wavenumber": 1},
            "output_dir": str(out),
        })
        assert main(["limit", "--config", cfg]) == 0
        rep = json.loads((out / "limit.json").read_text())
        assert len(rep["errors"]) == 3


class TestFsf1Periodic:
    def test_periodic_roundtrip(self, tmp_path):
        from fracsys import SampledField, periodic_rule
        from fracsys import write_field_fsf1 as wf, read_field_fsf1 as rf

        grid = GridSpec(dim=1, h=2 * np.pi / 32, radius=np.pi, periodic=True)
        f = field_from_function(grid, lambda p: np.sin(p[:, 0]), periodic_rule(), m=1)
        path = wf(tmp_path / "p.fsf1", f)
        g = rf(path, exterior="periodic")
        assert g.grid.periodic and g.grid == f.grid
        assert np.array_equal(np.asarray(g.values), np.asarray(f.values))


class TestSchemaVersion:
    def test_current_version_accepted(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"command": "audit", "schema_version": 1,
                                 "bounds": {"a": 1.0, "a_star": 0.0, "M": 1.0},
                                 "output_dir": str(tmp_path / "out")}))
        assert main(["audit", "--config", str(p)]) == 0

    def test_future_version_rejected(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"command": "audit", "schema_version": 99}))
        assert main(["audit", "--config", str(p)]) == 2
        assert "schema_version" in capsys.readouterr().err
