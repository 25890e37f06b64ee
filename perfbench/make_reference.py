"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Run from the root of a checkout; writes perfbench/reference.json.  The
references are fracsys's own outputs at the commit that recorded them, so
regenerate them only when a change of results is intended and reviewed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import fracsys as fs  # noqa: E402
from fracsys import cli  # noqa: E402
import workloads as wl  # noqa: E402


def run_cli(workdir, command, **values):
    w = wl.Workload(0, workdir)
    config = w.write_config(command, **values)
    out = workdir / f"{command}-out"
    shutil.rmtree(out, ignore_errors=True)
    status = cli.main([command, "--config", str(config), "--out", str(out)])
    if status != 0:
        raise SystemExit(f"fracsys {command} exited with status {status}")
    return out


def operators_1d():
    kernel = fs.make_fractional_kernel(1, 0.5)
    ref = {}
    for inv_h in wl.Operators1D.SIZES:
        grid = wl.operators_1d_grid(inv_h)
        nodes = wl.interior_samples(grid)
        fields = [fs.SampledField(grid, b[:, None], fs.zero_rule())
                  for b in wl.operators_1d_basis(grid)]
        K = len(fields)
        apply = [fs.apply_LK_field(f, kernel)[0][nodes, 0] for f in fields]
        bil = np.zeros((K, K, nodes.size))
        e_int, e_tail = np.zeros((K, K)), np.zeros((K, K))
        for j in range(K):
            for k in range(j, K):
                bil[j, k] = bil[k, j] = fs.bilinear_form_field(fields[j], fields[k],
                                                               kernel)[0][nodes]
                if j == k:
                    e = fs.s_energy(fields[j], 0.5)
                    e_int[j, j], e_tail[j, j] = e.interior_part, e.tail_part
                    continue
                # polarization: the energy is a quadratic form in u
                plus = fields[j].with_values(fields[j].values + fields[k].values)
                minus = fields[j].with_values(fields[j].values - fields[k].values)
                ep, em = fs.s_energy(plus, 0.5), fs.s_energy(minus, 0.5)
                e_int[j, k] = e_int[k, j] = 0.25 * (ep.interior_part - em.interior_part)
                e_tail[j, k] = e_tail[k, j] = 0.25 * (ep.tail_part - em.tail_part)
        ref[str(inv_h)] = {"nodes": nodes.tolist(), "apply": np.array(apply).tolist(),
                           "bilinear": bil.tolist(), "energy_interior": e_int.tolist(),
                           "energy_tail": e_tail.tolist()}
    return ref


def dirichlet_2d(workdir):
    out = run_cli(workdir, "solve-linear")
    config = json.loads((HERE / "configs" / "solve-linear.json").read_text())
    grid = fs.GridSpec(**config["grid"])
    nodes = wl.interior_samples(grid)
    linear = {"nodes": nodes.tolist(),
              "values": wl.read_fsf1(out / "field.fsf1").reshape(-1)[nodes].tolist()}
    g32 = fs.GridSpec(dim=2, h=1.0 / 32, radius=1.0)
    res = fs.barrier_bound(g32, fs.make_fractional_kernel(2, 0.5))
    bnodes = wl.interior_samples(g32)
    barrier = {"nodes": bnodes.tolist(),
               "values": np.asarray(res["v"].values).reshape(-1)[bnodes].tolist(),
               "L_bound": res["L_bound"]}
    harnack = {}
    for amp in wl.HARNACK_AMPLITUDES:
        out = run_cli(workdir, "probe-harnack", amplitude=amp)
        harnack[str(amp)] = json.loads((out / "harnack.json").read_text())["ratios_by_s"]
    return {"solve-linear": linear, "barrier": barrier, "probe-harnack": harnack}


def flow_1d(workdir):
    ref = {}
    for command in ("solve-harmonic", "solve-gl"):
        ref[command] = {}
        for amp in wl.FLOW_AMPLITUDES:
            out = run_cli(workdir, command, amplitude=amp)
            rep = json.loads((out / "report.json").read_text())
            ref[command][str(amp)] = rep["energy_trace"][-1]
            print(command, amp, rep["iterations"], "steps", flush=True)
    return ref


def main():
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        ref = {"operators-1d": operators_1d(),
               "dirichlet-2d": dirichlet_2d(workdir),
               "flow-1d": flow_1d(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
