"""The three benchmark workloads.

Each workload turns a seed into inputs (``setup``) and then yields, pass by
pass, a fixed list of operations.  An operation is run through the public
fracsys API or the ``fracsys`` CLI entry point, and its result is checked
afterwards, outside the timed region.  A check that fails raises
``CheckFailed``; the runner counts it in ``failed``.

Why these three: each layer an optimisation is likely to target does most
of the work in one workload and little in another.

* operators-1d    free-space 1-d shell loops (operators layer)
* dense-solvers   two parts in one process: dirichlet-2d, dense assembly
                  and Cholesky and ball statistics (solvers,
                  operators.assemble, fields/enclosing, probe); flow-1d,
                  explicit sphere-valued flows (solvers)
* periodic-sweep  cold quadrature builds, torus FFTs (quadrature, kernels)

Reference values were recorded from fracsys by ``make_reference.py``.  Inputs
that a seed varies continuously enter linearly (operators-1d: a seeded
combination of fixed basis fields), so the reference for any seed follows
from recorded basis responses.  Nonlinear outputs (flows, Harnack ratios)
take their seeded amplitude from a short list with one reference per entry.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import fracsys as fs
from fracsys import cli

HERE = Path(__file__).resolve().parent

# Tolerances against recorded references.  Operators: the loop and an FFT
# correlation agree to ~1e-14, a wrong stencil is off by >1e-4.  Linear
# solves and derived ratios: room for an iterative solver converged to a
# residual of ~1e-9.  Flow energies: stopping points of correct flows at
# tol 1e-7 differ quadratically in the residual.
RTOL_OPERATOR = 1e-9
RTOL_SOLVE = 1e-6
RTOL_FLOW_ENERGY = 1e-6

# ROADMAP gates, never loosened
SQUARE_IDENTITY_GATE = 1e-12
BILINEAR_NEG_GATE = 1e-13       # B(u,u) >= -gate * max|B|
SPECTRAL_GATE = 1e-2            # quadrature vs Fourier multiplier, relative
MAX_PRINCIPLE_GATE = 1e-12      # barrier solution v <= gate
CONSTRAINT_GATE = 1e-12         # |u| = 1 after the projected flow
LIMIT_RATE = (0.8, 1.2)         # fitted rate of the isotropic s -> 1 limit
HARNACK_SPREAD = 2.0            # max/min Harnack ratio across orders
GEOMETRY_RTOL = 1e-9            # enclosing-ball rounding (Welzl slack is 1e-12)

# seeded amplitudes of the nonlinear CLI runs; one reference each
FLOW_AMPLITUDES = (0.55, 0.575, 0.6, 0.625, 0.65)
HARNACK_AMPLITUDES = (0.4, 0.5, 0.6, 0.7, 0.8)

BASIS_SIZE = 4      # operators-1d fields are seeded combinations of these
SAMPLE_NODES = 16   # recorded nodes per grid


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def require_close(value, ref, rtol, what):
    value, ref = np.asarray(value, float), np.asarray(ref, float)
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    err = float(np.max(np.abs(value - ref))) / scale
    require(np.all(np.isfinite(value)) and err <= rtol,
            f"{what}: relative deviation {err:.3e} from the reference exceeds {rtol:.0e}")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def warm_numerics():
    """First BLAS, LAPACK and FFT calls; their one-off cost belongs to set-up."""
    import scipy.linalg
    import scipy.signal

    a = np.full((64, 64), -0.01) + np.eye(64)
    b = np.ones((64, 2))
    scipy.linalg.solve(a, b, assume_a="pos")
    a @ b
    np.fft.ifft(np.fft.fft(b[:, 0]))
    np.fft.ifft2(np.fft.fft2(a))
    scipy.signal.fftconvolve(a, a[:9, :9], mode="valid")


def fill(template, values):
    """Replace "$name" strings in a config template by values[name]."""
    if isinstance(template, dict):
        return {k: fill(v, values) for k, v in template.items()}
    if isinstance(template, list):
        return [fill(v, values) for v in template]
    if isinstance(template, str) and template.startswith("$"):
        return values[template[1:]]
    return template


def read_fsf1(path):
    """Node values of a binary field file, read without fracsys."""
    raw = Path(path).read_bytes()
    dim, m = struct.unpack_from("<ii", raw, 4)
    dims = struct.unpack_from(f"<{dim}i", raw, 12)
    off = 12 + 4 * dim + 8
    return np.frombuffer(raw, dtype="<f8", offset=off).reshape(*dims, m)


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def interior_samples(grid, count=SAMPLE_NODES):
    """Fixed flat indices of interior nodes, first and last included."""
    flat = np.nonzero(grid.interior_mask().ravel())[0]
    return flat[np.round(np.linspace(0, flat.size - 1, count)).astype(int)]


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed) % 2**63   # numpy seeds must be nonnegative
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(self.seed)
        self._digests = {}
        self._runs = 0

    def setup(self):
        raise NotImplementedError

    def ops(self, pass_index: int):
        raise NotImplementedError

    # -- CLI operations ----------------------------------------------------

    def write_config(self, command, **values):
        template = json.loads((HERE / "configs" / f"{command}.json").read_text())
        path = self.workdir / f"{command}.json"
        path.write_text(json.dumps(fill(template, values)))
        return path

    def cli_op(self, label, command, check):
        config = self.workdir / f"{command}.json"

        def run():
            self._runs += 1
            out = self.workdir / f"{command}-out-{self._runs}"
            return out, cli.main([command, "--config", str(config), "--out", str(out)])

        def check_outputs(result):
            out, status = result
            try:
                require(status == 0, f"fracsys {command} exited with status {status}")
                check(out)
                digest = tree_digest(out)
                first = self._digests.setdefault(command, digest)
                require(digest == first, f"fracsys {command} output differs between passes")
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op(label, run, check_outputs)


# -- operators-1d ------------------------------------------------------------


def operators_1d_grid(inv_h):
    return fs.GridSpec(dim=1, h=1.0 / inv_h, radius=1.0)


def operators_1d_basis(grid):
    """Fixed random interior fields, zero on every exterior node."""
    mask = grid.interior_mask().astype(float)
    return np.stack([np.random.default_rng(2016 + k).normal(size=mask.size) * mask
                     for k in range(BASIS_SIZE)])


class Operators1D(Workload):
    """Free-space 1-d operators at N = 4097 and 8193, s = 1/2."""

    name = "operators-1d"
    SIZES = (1024, 2048)   # 1/h; N = 4/h + 1 nodes at radius 1

    def setup(self):
        ref = load_reference()[self.name]
        self.kernel = fs.make_fractional_kernel(1, 0.5)
        self.coef = self.rng.normal(size=BASIS_SIZE)
        self.grids, self.fields, self.refs = {}, {}, {}
        for inv_h in self.SIZES:
            grid = operators_1d_grid(inv_h)
            vals = self.coef @ operators_1d_basis(grid)
            self.grids[inv_h] = grid
            self.fields[inv_h] = fs.SampledField(grid, vals[:, None], fs.zero_rule())
            r = ref[str(inv_h)]
            c = self.coef
            self.refs[inv_h] = {
                "nodes": np.asarray(r["nodes"]),
                "apply": c @ np.asarray(r["apply"]),
                "bilinear": np.einsum("j,k,jki->i", c, c, np.asarray(r["bilinear"])),
                "energy": np.array([c @ np.asarray(r["energy_interior"]) @ c,
                                    c @ np.asarray(r["energy_tail"]) @ c]),
            }
        coarse = self.SIZES[0]
        self.point_picks = self.rng.choice(SAMPLE_NODES, 3, replace=False)
        self.points = [float(self.grids[coarse].axis()[self.refs[coarse]["nodes"][i]])
                       for i in self.point_picks]

    def ops(self, pass_index):
        k = self.kernel
        out = []
        for inv_h in self.SIZES:
            u, ref, n = self.fields[inv_h], self.refs[inv_h], self.grids[inv_h].shape[0]
            nodes = ref["nodes"]

            def check_apply(res, ref=ref, nodes=nodes):
                require_close(res[0][nodes, 0], ref["apply"], RTOL_OPERATOR, "L_K u")

            def check_bilinear(res, ref=ref, nodes=nodes):
                b = np.asarray(res[0])
                require(float(np.min(b)) >= -BILINEAR_NEG_GATE * float(np.max(np.abs(b))),
                        f"B(u,u) negative: {float(np.min(b)):.3e}")
                require_close(b[nodes], ref["bilinear"], RTOL_OPERATOR, "B(u,u)")

            def check_energy(e, ref=ref):
                require_close([e.interior_part, e.tail_part], ref["energy"],
                              RTOL_OPERATOR, "s-energy")

            out += [
                Op(f"apply_LK_field N={n}", lambda u=u: fs.apply_LK_field(u, k), check_apply),
                Op(f"bilinear_form_field N={n}",
                   lambda u=u: fs.bilinear_form_field(u, u, k), check_bilinear),
                Op(f"s_energy N={n}", lambda u=u: fs.s_energy(u, 0.5), check_energy),
            ]
        coarse = self.SIZES[0]
        u, ref = self.fields[coarse], self.refs[coarse]
        n = self.grids[coarse].shape[0]
        for pick, x in zip(self.point_picks, self.points):
            out.append(Op(f"apply_LK point N={n}",
                          lambda x=x: fs.apply_LK(u, k, x),
                          lambda v, p=pick: require_close(v, ref["apply"][p],
                                                          RTOL_OPERATOR, "L_K u(x)")))

        def check_identity(resid):
            require(resid <= SQUARE_IDENTITY_GATE,
                    f"square identity residual {resid:.3e}")

        out.append(Op(f"square_identity_check N={self.grids[coarse].shape[0]}",
                      lambda: fs.square_identity_check(self.fields[coarse], k),
                      check_identity))
        return out


# -- dirichlet-2d --------------------------------------------------------------


def ledger_field(rng, grid):
    """Seeded smooth two-component field with |u| <= 0.85."""
    kx, ky = rng.uniform(1.0, 3.0, 2)
    ph = rng.uniform(0.0, 2.0 * np.pi, 3)
    amp = rng.uniform(0.5, 1.5)

    def fn(p):
        x, y = p[:, 0], p[:, 1]
        th = amp * np.sin(kx * x + ph[0]) + 0.5 * amp * np.cos(ky * y + ph[1])
        r = 0.6 + 0.25 * np.sin(x - y + ph[2])
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    return fs.field_from_function(grid, fn, fs.zero_rule(), m=2)


LEDGER_BOUNDS = dict(a=1.0, b=0.0, a_star=0.5, b_star=0.0, M=1.0)


class Dirichlet2D(Workload):
    """Part of dense-solvers: dense 2-d Dirichlet solves with 3205 unknowns,
    a Harnack sweep, and the ball statistics behind a dyadic ledger."""

    name = "dirichlet-2d"

    def setup(self):
        self.ref = load_reference()[self.name]
        self.amplitude = HARNACK_AMPLITUDES[int(self.rng.integers(len(HARNACK_AMPLITUDES)))]
        self.write_config("solve-linear")
        self.write_config("probe-harnack", amplitude=self.amplitude)
        self.barrier_grid = fs.GridSpec(dim=2, h=1.0 / 32, radius=1.0)
        self.kernel = fs.make_fractional_kernel(2, 0.5)
        grid = fs.GridSpec(dim=2, h=1.0 / 32, radius=1.0)
        self.ledger_u = ledger_field(self.rng, grid)
        self.bounds = fs.GrowthBounds(**LEDGER_BOUNDS)

    def ops(self, pass_index):
        ref = self.ref
        linear_nodes = np.asarray(ref["solve-linear"]["nodes"])

        def check_linear(out):
            vals = read_fsf1(out / "field.fsf1").reshape(-1)
            require_close(vals[linear_nodes], ref["solve-linear"]["values"],
                          RTOL_SOLVE, "solve-linear field")

        def check_barrier(res):
            v = np.asarray(res["v"].values).reshape(-1)
            require(float(np.max(v)) <= MAX_PRINCIPLE_GATE,
                    f"maximum principle violated: max v = {float(np.max(v)):.3e}")
            b = ref["barrier"]
            require_close(v[np.asarray(b["nodes"])], b["values"], RTOL_SOLVE, "barrier field")
            require_close(res["L_bound"], b["L_bound"], RTOL_SOLVE, "barrier L_bound")

        def check_harnack(out):
            rep = json.loads((out / "harnack.json").read_text())
            ratios = np.asarray(rep["ratios_by_s"], float)
            require(np.all(np.isfinite(ratios)) and np.all(ratios >= 1.0),
                    f"Harnack ratios out of range: {ratios}")
            require(float(ratios.max() / ratios.min()) <= HARNACK_SPREAD,
                    f"Harnack ratios spread {ratios.max() / ratios.min():.3f}")
            require_close(ratios, ref["probe-harnack"][str(self.amplitude)],
                          RTOL_SOLVE, "Harnack ratios")

        u, bounds = self.ledger_u, self.bounds
        origin = np.zeros(2)

        def check_ledger(led):
            radii = np.asarray(led.radii)
            scale = float(radii.max())
            # images of nested balls are nested, so enclosing radii cannot grow
            require(np.all(np.diff(radii) <= GEOMETRY_RTOL * scale),
                    f"enclosing radii grow across levels: {radii}")
            require(led.containment_violation <= GEOMETRY_RTOL * scale,
                    f"containment violated by {led.containment_violation:.3e}")

        def check_contraction(res):
            delta = res["delta_observed"]
            require(0.0 <= delta <= 1.0, f"delta out of range: {delta}")
            pts = u.grid.points().reshape(-1, 2)
            vals = np.asarray(u.values).reshape(-1, 2)
            V = vals[np.linalg.norm(pts, axis=1) <= 0.5 + 1e-12]
            reach = float(np.max(np.linalg.norm(V - res["new_center"], axis=1)))
            M = bounds.M
            require(reach <= M * (1.0 - delta) + GEOMETRY_RTOL * M,
                    f"image not inside the contracted ball: {reach} > {M * (1 - delta)}")

        return [
            self.cli_op("fracsys solve-linear h=1/32", "solve-linear", check_linear),
            Op("barrier_bound h=1/32",
               lambda: fs.barrier_bound(self.barrier_grid, self.kernel), check_barrier),
            self.cli_op("fracsys probe-harnack h=1/24", "probe-harnack", check_harnack),
            Op("dyadic_ledger h=1/32",
               lambda: fs.dyadic_ledger(u, origin, 4, bounds, s=0.5), check_ledger),
            Op("contraction_step h=1/32",
               lambda: fs.contraction_step(u, bounds, (origin, 0.5)), check_contraction),
        ]


# -- flow-1d -----------------------------------------------------------------


class Flow1D(Workload):
    """Part of dense-solvers: explicit sphere-valued flows through the CLI."""

    name = "flow-1d"

    def setup(self):
        self.ref = load_reference()[self.name]
        self.amplitude = FLOW_AMPLITUDES[int(self.rng.integers(len(FLOW_AMPLITUDES)))]
        self.budget = {}
        for command in ("solve-harmonic", "solve-gl"):
            path = self.write_config(command, amplitude=self.amplitude)
            self.budget[command] = json.loads(path.read_text())["solver"]["steps"]

    def _check(self, command):
        def check(out):
            rep = json.loads((out / "report.json").read_text())
            trace = np.asarray(rep["energy_trace"], float)
            require(rep["iterations"] < self.budget[command],
                    f"{command} did not converge within {self.budget[command]} steps")
            slack = 1e-12 * (abs(trace[0]) + 1.0)
            require(np.all(np.diff(trace) <= slack), f"{command} energy trace rises")
            if command == "solve-harmonic":
                require(rep["constraint_violation"] <= CONSTRAINT_GATE,
                        f"constraint violation {rep['constraint_violation']:.3e}")
            require_close(trace[-1], self.ref[command][str(self.amplitude)],
                          RTOL_FLOW_ENERGY, f"{command} final energy")
        return check

    def ops(self, pass_index):
        return [self.cli_op("fracsys solve-harmonic h=1/256", "solve-harmonic",
                            self._check("solve-harmonic")),
                self.cli_op("fracsys solve-gl h=1/256", "solve-gl",
                            self._check("solve-gl"))]


# -- periodic-sweep ------------------------------------------------------------


def trig_field(rng, grid, modes):
    """Seeded real trigonometric polynomial, normalized to max |v| = 1."""
    pts = grid.points().reshape(-1, grid.dim)
    v = np.zeros(pts.shape[0])
    for _ in range(modes):
        k = rng.integers(1, 5, size=grid.dim) * rng.choice([-1, 1], size=grid.dim)
        v += rng.normal() * np.cos(pts @ k + rng.uniform(0.0, 2.0 * np.pi))
    v /= np.max(np.abs(v))
    return fs.SampledField(grid, v.reshape(*grid.shape, 1), fs.periodic_rule())


class PeriodicSweep(Workload):
    """Torus operators at orders drawn fresh on every pass, so every order
    misses the quadrature-scheme cache."""

    name = "periodic-sweep"

    def setup(self):
        two_pi = 2.0 * np.pi
        self.v2 = trig_field(self.rng, fs.GridSpec(2, two_pi / 256, np.pi, periodic=True), 3)
        self.v1 = trig_field(self.rng, fs.GridSpec(1, two_pi / 4096, np.pi, periodic=True), 6)
        self.A = np.diag(self.rng.uniform(0.8, 1.6, 2))
        self.write_config("verify", seed=self.seed)

    @staticmethod
    def _check_decreasing(rep):
        errors = np.asarray(rep.errors)
        require(np.all(np.isfinite(errors)) and np.all(np.diff(errors) < 0),
                f"s -> 1 errors do not decrease: {errors}")

    @classmethod
    def _check_rate(cls, rep):
        cls._check_decreasing(rep)
        lo, hi = LIMIT_RATE
        require(lo <= rep.fitted_rate <= hi, f"fitted rate {rep.fitted_rate:.3f}")

    def ops(self, pass_index):
        rng = self.rng
        s4 = tuple(np.sort(rng.uniform(0.85, 0.99, 4)))
        s8 = tuple(np.sort(rng.uniform(0.85, 0.99, 8)))
        s2 = rng.uniform(0.2, 0.8, 2)
        v1, v2 = self.v1, self.v2
        out = [
            # criterion 4 puts the rate window on the isotropic limit only; on
            # the 256^2 torus the grid floor gives anisotropic fits of ~0.8-0.95
            Op("s_limit_anisotropic N=256^2 x4",
               lambda: fs.s_limit_anisotropic(v2, self.A, s4), self._check_decreasing),
            Op("s_limit_isotropic N=4096 x8",
               lambda: fs.s_limit_isotropic(v1, s8), self._check_rate),
        ]

        def check_energy(e):
            require(np.isfinite(e.total) and e.interior_part >= 0.0 and e.tail_part >= 0.0,
                    f"periodic energy out of range: {e}")

        def check_spectral(res):
            quad, ref = res
            err = float(np.max(np.abs(quad - ref)) / np.max(np.abs(ref)))
            require(err < SPECTRAL_GATE, f"quadrature vs spectral oracle: {err:.3e}")

        for s in map(float, s2):
            out += [
                Op("s_energy periodic N=4096", lambda s=s: fs.s_energy(v1, s), check_energy),
                Op("spectral cross-check N=4096",
                   lambda s=s: (fs.apply_fractional_laplacian_field(v1, s)[0],
                                np.asarray(fs.spectral_apply(v1, s).values)),
                   check_spectral),
            ]

        def check_verify(out_dir):
            verdicts = json.loads((out_dir / "verify.json").read_text())["verdicts"]
            failing = [v["name"] for v in verdicts if not v["pass"]]
            require(not failing, f"verify verdicts failing: {failing}")

        out.append(self.cli_op("fracsys verify", "verify", check_verify))
        return out


class DenseSolvers(Workload):
    """The dirichlet-2d and flow-1d parts, one after the other in each pass."""

    name = "dense-solvers"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.parts = (Dirichlet2D(seed, workdir), Flow1D(seed + 1, workdir))

    def setup(self):
        for part in self.parts:
            part.setup()

    def ops(self, pass_index):
        return [op for part in self.parts for op in part.ops(pass_index)]


WORKLOADS = {w.name: w for w in (Operators1D, DenseSolvers, PeriodicSweep)}
