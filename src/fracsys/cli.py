"""Configuration-driven experiment runner.

Usage:  fracsys <command> --config <path> [--out <dir>]

Commands: solve-linear, solve-harmonic, solve-gl, probe-decay, probe-harnack,
audit, verify, limit.  The JSON config carries the kernel, grid, bounds,
solver parameters, output directory and seed; the command may also be named
in the config and overridden on the command line.

Exit status: 0 when every verdict passes, 1 when a check fails, 2 on a
configuration error, 3 when a solver fails or a floating-point operation
overflows or turns invalid (the diagnostics go to error.json in the output
directory).  Fixed seed and config produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DomainError, SolverError
from .fields import (GridSpec, SampledField, callback_rule, field_from_function,
                     parse_rule, periodic_rule, sign_rule, zero_rule)
from .kernels import (KernelSpec, make_anisotropic_kernel, make_fractional_kernel)
from .probe import (GrowthBounds, dyadic_ledger, harnack_sweep, structural_audit,
                    supersolution_family)
from .reports import (_require_fsf1_grid, emit_report, write_csv, write_field_csv,
                      write_field_fsf1)
from .solvers import (GLConfig, LinearProblem, gradient_flow_s_harmonic,
                      ginzburg_landau_solve, solve_linear_dirichlet)
from .verify import (counterexample_residual, s_limit_anisotropic, s_limit_isotropic,
                     sign_algebra_check, square_identity_check)

class ConfigError(Exception):
    pass


def _number(where: str, raw, cast=float):
    """A config value converted by cast (float, int or _matrix); ConfigError
    naming where it sits (section.key) when it is a JSON boolean (which
    would read as 1 or 0), not a number or not finite, and for cast int when
    it has a fractional part (int would truncate it)."""
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} must be numeric, got {raw!r}") from None
    if isinstance(raw, bool) or (cast is int and isinstance(raw, float) and value != raw):
        raise ConfigError(f"{where} must be {'an integer' if cast is int else 'numeric'}, "
                          f"got {raw!r}")
    if cast is not int and not np.all(np.isfinite(value)):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return value


def _order(where: str, raw) -> float:
    """An order parameter s read by _number; ConfigError outside (0, 1)."""
    s = _number(where, raw)
    if not 0.0 < s < 1.0:
        raise ConfigError(f"order parameter out of range: {where} = {s!r}")
    return s


def _matrix(raw) -> np.ndarray:
    """raw as a float array; a JSON boolean anywhere in it (np.asarray would
    read it as 1 or 0) raises the ValueError that _number reports."""
    if any(isinstance(e, bool) for e in np.asarray(raw, dtype=object).ravel()):
        raise ValueError(raw)
    return np.asarray(raw, dtype=float)


SCHEMA_VERSION = 1

# the keys each config section may carry (README, "Sections")
SECTION_KEYS = {
    "kernel": {"kind", "s", "matrix", "lambda", "Lambda"},
    "grid": {f.name for f in fields(GridSpec)},
    "bounds": {f.name for f in fields(GrowthBounds)},
    "solver": {"rhs", "steps", "tol", "epsilon", "amplitude", "levels", "wavenumber"},
}

# the JSON type of every top-level key that is not a number
_SHAPES = {**{sec: dict for sec in SECTION_KEYS}, "s_values": list,
           **{k: str for k in ("command", "exterior", "field_profile", "output_dir")}}
_SHAPE_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _reads(*keys) -> set:
    """The keys every command reads, the given ones, the section of each
    section.key, and every key of a section named whole."""
    out = {"command", "schema_version", "output_dir"}
    for key in keys:
        out |= {key, key.split(".")[0]}
        out |= {f"{key}.{k}" for k in SECTION_KEYS.get(key, ())}
    return out


@dataclass
class ExperimentConfig:
    command: str
    schema_version: int = SCHEMA_VERSION
    kernel: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    exterior: str = "zero"
    field_profile: str = ""
    s_values: tuple = ()
    output_dir: str = "out"
    seed: int = 0

    @staticmethod
    def load(path, command_override=None, out_override=None) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        for key, kind in _SHAPES.items():
            if key in raw and not isinstance(raw[key], kind):
                raise ConfigError(f"{key} must be {_SHAPE_NAMES[kind]}, got {raw[key]!r}")
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(raw) - known
        unknown |= {f"{sec}.{k}" for sec, keys in SECTION_KEYS.items()
                    for k in raw.get(sec, {}) if k not in keys}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if _number("schema_version", raw.get("schema_version", SCHEMA_VERSION),
                   int) != SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported schema_version {raw['schema_version']}; "
                f"this build reads version {SCHEMA_VERSION}")
        cfg = ExperimentConfig(command=raw.get("command", ""), **{
            k: v for k, v in raw.items() if k != "command"})
        if command_override:
            cfg.command = command_override
        if out_override:
            cfg.output_dir = out_override
        if cfg.command not in COMMANDS:
            raise ConfigError(f"unknown command: {cfg.command!r}")
        given = set(raw) | {f"{sec}.{k}" for sec in SECTION_KEYS for k in raw.get(sec, {})}
        unread = given - COMMANDS[cfg.command][1]
        if unread:
            raise ConfigError(f"{cfg.command} does not read config keys: {sorted(unread)}")
        cfg.s_values = tuple(cfg.s_values)
        return cfg

    # -- section builders ---------------------------------------------------

    def build_kernel(self, dim) -> KernelSpec:
        k = dict(self.kernel)
        s = _order("kernel.s", k.get("s", 0.5))
        kind = k.get("kind", "fractional")
        if kind == "fractional":
            if "matrix" in k:
                raise ConfigError("kernel.matrix needs kind 'anisotropic'; "
                                  "the fractional kernel reads no matrix")
            spec = make_fractional_kernel(dim, s)
        elif kind == "anisotropic":
            if "matrix" not in k:
                raise ConfigError("anisotropic kernel needs a matrix")
            spec = make_anisotropic_kernel(_number("kernel.matrix", k["matrix"], _matrix), s)
        else:
            raise ConfigError(f"unsupported kernel kind in config: {kind!r}")
        # ellipticity constants are derived, never user-set; reject mismatches
        for key, derived in (("lambda", spec.lam), ("Lambda", spec.Lam)):
            if key in k and not np.isclose(_number(f"kernel.{key}", k[key]), derived,
                                           rtol=1e-6):
                raise ConfigError(
                    f"{key}={k[key]} conflicts with the derived value {derived:.6g}")
        return spec

    def build_grid(self, default_dim=1, periodic=False) -> GridSpec:
        g = dict(self.grid)
        periodic = g.get("periodic", periodic)
        if not isinstance(periodic, bool):
            raise ConfigError(f"grid.periodic must be true or false, got {periodic!r}")
        return GridSpec(
            dim=_number("grid.dim", g.get("dim", default_dim), int),
            h=_number("grid.h", g.get("h", 1.0 / 128.0)),
            radius=_number("grid.radius", g.get("radius", 1.0)),
            truncation_radius=_number("grid.truncation_radius",
                                      g.get("truncation_radius", 0.0)),
            periodic=periodic,
        )

    def build_bounds(self) -> GrowthBounds:
        b = dict(self.bounds)
        missing = {"a", "a_star", "M"} - set(b)
        if missing:
            raise ConfigError(f"bounds section missing keys: {sorted(missing)}")
        return GrowthBounds(a=_number("bounds.a", b["a"]),
                            b=_number("bounds.b", b.get("b", 0.0)),
                            a_star=_number("bounds.a_star", b["a_star"]),
                            b_star=_number("bounds.b_star", b.get("b_star", 0.0)),
                            M=_number("bounds.M", b["M"]))


def _phase_rule(cfg: ExperimentConfig):
    """The flows' unit exterior data (cos th, sin th), th = amplitude tanh x_1,
    amplitude from solver.amplitude."""
    amplitude = _number("solver.amplitude", cfg.solver.get("amplitude", 0.6))

    def g(pts):
        th = amplitude * np.tanh(pts[:, 0])
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    return callback_rule(g)


def _named_profile(name: str, grid: GridSpec) -> SampledField:
    if name == "sign":
        return field_from_function(grid, lambda p: np.sign(p[:, 0]), sign_rule(),
                                   m=1, bound=1.0)
    if name == "sqrt_abs":
        return field_from_function(grid, lambda p: np.sqrt(np.abs(p[:, 0])),
                                   callback_rule(lambda p: np.sqrt(np.abs(p[:, :1]))), m=1)
    if name == "linear":
        return field_from_function(grid, lambda p: p[:, 0],
                                   callback_rule(lambda p: p[:, :1]), m=1)
    raise ConfigError(f"unknown field profile: {name!r}")


# -- command implementations ---------------------------------------------------


def _write_solution(out: Path, fld: SampledField, report):
    """A solve command's field, as CSV and FSF1, and its report.json."""
    write_field_csv(out / "field.csv", fld)
    write_field_fsf1(out / "field.fsf1", fld)
    emit_report(report, out / "report.json")


def _cmd_solve_linear(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.build_grid()
    _require_fsf1_grid(grid)
    kernel = cfg.build_kernel(grid.dim)
    rule = parse_rule(cfg.exterior)
    rhs = _number("solver.rhs", cfg.solver.get("rhs", 1.0))
    _write_solution(out, *solve_linear_dirichlet(LinearProblem(kernel, grid, rhs, rule)))
    return 0


def _orders(cfg: ExperimentConfig, default: tuple) -> tuple:
    """The config's s_values (or the default) as floats in (0, 1)."""
    return tuple(_order("s_values", s) for s in cfg.s_values or default)


def _require_fractional(cfg: ExperimentConfig):
    """Reject kernel kinds a command cannot honour: the flows and the Harnack
    family build the fractional kernel from the order alone."""
    kind = cfg.kernel.get("kind", "fractional")
    if kind != "fractional":
        raise ConfigError(f"{cfg.command} supports only the fractional kernel, "
                          f"not kind {kind!r}")


def _solve_flow(cfg: ExperimentConfig, out: Path, relaxed: bool) -> int:
    grid = cfg.build_grid()
    _require_fsf1_grid(grid)
    _require_fractional(cfg)
    s = cfg.build_kernel(grid.dim).s
    g = _phase_rule(cfg)
    steps = _number("solver.steps", cfg.solver.get("steps", 20000), int)
    tol = _number("solver.tol", cfg.solver.get("tol", 1e-6))
    if relaxed:
        gl = GLConfig(epsilon=_number("solver.epsilon", cfg.solver.get("epsilon", 1e-3)), s=s,
                      max_steps=steps, tol=tol)
        fld, report = ginzburg_landau_solve(gl, g, grid, m=2)
    else:
        fld, report = gradient_flow_s_harmonic(grid, g, s, m=2, steps=steps, tol=tol)
    _write_solution(out, fld, report)
    write_csv(out / "energy_trace.csv", ["step", "energy"],
              list(enumerate(report.energy_trace)))
    return 0


def _cmd_probe_decay(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.build_grid()
    name = cfg.field_profile or "sign"
    fld = _named_profile(name, grid)
    bounds = cfg.build_bounds()
    levels = _number("solver.levels", cfg.solver.get("levels", 5), int)
    s = None if "s" not in cfg.kernel else _order("kernel.s", cfg.kernel["s"])
    ledger = dyadic_ledger(fld, np.zeros(grid.dim), levels, bounds, s=s)
    emit_report(ledger, out / "decay_ledger.json")
    return 0


def _cmd_probe_harnack(cfg: ExperimentConfig, out: Path) -> int:
    grid = cfg.build_grid()
    _require_fractional(cfg)
    cfg.build_kernel(grid.dim)  # refuses a kernel.matrix the family would not read
    s_values = _orders(cfg, (0.5, 0.7, 0.9))
    builder = supersolution_family(grid, _phase_rule(cfg), m=2)
    report = harnack_sweep(builder, s_values, (np.zeros(grid.dim), grid.radius / 2.0))
    emit_report(report, out / "harnack.json")
    return 0


def _cmd_audit(cfg: ExperimentConfig, out: Path) -> int:
    bounds = cfg.build_bounds()
    verdict = structural_audit(bounds)
    emit_report(verdict, out / "audit.json")
    return 0 if verdict["satisfied"] else 1


def _cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    seed = _number("seed", cfg.seed, int)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    verdicts = []

    grid = GridSpec(dim=1, h=1.0 / 32.0, radius=1.0)
    kernel = make_fractional_kernel(1, 0.5)
    worst = 0.0
    for _ in range(5):
        vals = rng.normal(size=(*grid.shape, 1))
        v = SampledField(grid, vals, zero_rule())
        worst = max(worst, square_identity_check(v, kernel))
    verdicts.append({"name": "square_identity", "max_residual": worst,
                     "threshold": 1e-12, "pass": bool(worst <= 1e-12)})

    algebra_ok = all(sign_algebra_check(sx, sy)
                     for sx in (-1.0, 1.0) for sy in (-1.0, 1.0))
    verdicts.append({"name": "sign_algebra", "max_residual": 0.0 if algebra_ok else 1.0,
                     "threshold": 0.5, "pass": bool(algebra_ok)})

    # the identity holds up to the smoothing-zone defect, which scales like
    # 1/n with constant ~3.4 at the near end of the band for s = 1/2
    r16 = counterexample_residual(16, 0.5, (0.2, 1.0))
    r32 = counterexample_residual(32, 0.5, (0.2, 1.0))
    ok = (r32 <= 0.15) and (r32 <= 0.75 * r16)
    verdicts.append({"name": "counterexample", "max_residual": r32,
                     "threshold": 0.15, "pass": bool(ok)})

    pg = GridSpec(dim=1, h=2.0 * np.pi / 1024.0, radius=np.pi, periodic=True)
    v = field_from_function(pg, lambda p: np.cos(2.0 * p[:, 0]), periodic_rule(), m=1)
    limit = s_limit_isotropic(v, (0.9, 0.95, 0.99))
    rate_err = abs(limit.fitted_rate - 1.0)
    verdicts.append({"name": "s_limit", "max_residual": rate_err,
                     "threshold": 0.2, "pass": bool(rate_err <= 0.2)})

    emit_report({"verdicts": verdicts}, out / "verify.json")
    return 0 if all(v["pass"] for v in verdicts) else 1


def _cmd_limit(cfg: ExperimentConfig, out: Path) -> int:
    s_values = _orders(cfg, (0.9, 0.95, 0.99))
    g = cfg.build_grid(periodic=True)
    if not g.periodic:
        raise ConfigError("limit command needs a periodic grid")
    if g.dim != 1 and "matrix" not in cfg.kernel:
        raise ConfigError("anisotropic limit needs kernel.matrix")
    kind = cfg.kernel.get("kind", "fractional")
    if g.dim != 1 and kind != "anisotropic":
        raise ConfigError("the 2-d limit is anisotropic: kernel.matrix is read only with "
                          f"kernel.kind 'anisotropic', not {kind!r}")
    if g.dim == 1 and (kind != "fractional" or "matrix" in cfg.kernel):
        raise ConfigError("the 1-d limit is isotropic: it reads no kernel.matrix "
                          "and no kernel.kind but 'fractional'")
    wave = _number("solver.wavenumber", cfg.solver.get("wavenumber", 2), int)
    v = field_from_function(g, lambda p: np.cos(wave * p[:, 0]), periodic_rule(), m=1)
    if g.dim == 1:
        report = s_limit_isotropic(v, s_values)
    else:
        A = _number("kernel.matrix", cfg.kernel["matrix"], _matrix)
        report = s_limit_anisotropic(v, A, s_values)
    emit_report(report, out / "limit.json")
    return 0


# every command: its runner and the keys it reads (README, "Sections").  Any
# other key set in its config would be silently ignored, so it is refused
# like an unknown key.  A key a builder inspects counts as read.  Only verify
# draws random numbers; the flows take their exterior data from
# solver.amplitude.  Schema 1 still accepts three keys nothing reads:
# kernel.s on limit, solver.steps on probe-harnack and grid on verify.
_FLOW_READS = ("grid", "kernel", "solver.amplitude", "solver.steps", "solver.tol")
COMMANDS = {
    "solve-linear": (_cmd_solve_linear, _reads("grid", "kernel", "exterior", "solver.rhs")),
    "solve-harmonic": (lambda cfg, out: _solve_flow(cfg, out, relaxed=False),
                       _reads(*_FLOW_READS)),
    "solve-gl": (lambda cfg, out: _solve_flow(cfg, out, relaxed=True),
                 _reads(*_FLOW_READS, "solver.epsilon")),
    "probe-decay": (_cmd_probe_decay, _reads("grid", "bounds", "field_profile", "kernel.s",
                                             "solver.levels")),
    "probe-harnack": (_cmd_probe_harnack, _reads("grid", "kernel", "s_values",
                                                 "solver.amplitude", "solver.steps")),
    "audit": (_cmd_audit, _reads("bounds")),
    "verify": (_cmd_verify, _reads("seed", "grid")),
    "limit": (_cmd_limit, _reads("grid", "s_values", "kernel.kind", "kernel.matrix",
                                 "kernel.s", "solver.wavenumber")),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracsys",
        description="config-driven experiments with nonlocal operators of fractional order")
    parser.add_argument("command", nargs="?", help=f"one of {', '.join(COMMANDS)}")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, command_override=args.command,
                                    out_override=args.out)
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(over="raise", invalid="raise"):
            return COMMANDS[cfg.command][0](cfg, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, FloatingPointError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        emit_report({"message": str(exc), "diagnostics": getattr(exc, "diagnostics", {})},
                    out / "error.json")
        return 3


if __name__ == "__main__":
    sys.exit(main())
