"""fracsys benchmark: one workload, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The process builds the workload's inputs
from the seed, runs passes over its fixed operation list through the public
fracsys API and the ``fracsys`` CLI entry point for up to S seconds (at
least four passes), checks every output, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of three
fresh-process set-ups: two probe processes and this one), ``pass_s`` (median
pass time), ``peak_rss_mb`` and ``passed_frac``.  ``--trace 1`` wraps the
fracsys layers in spans (see tracer.py) and reports per-layer metrics
instead; end-to-end numbers never come from a traced run.

Scratch files (CLI outputs, generated configs) live in a temporary
directory under ``.perfbench/`` that is removed before exit; the run's
details and spans are kept in ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("operators-1d", "dense-solvers", "periodic-sweep")
SETUP_SAMPLES = 3
MIN_PASSES = 4
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up, print it and exit (used internally)")
    return p.parse_args(argv)


def timed_setup(name, seed, workdir):
    """Fresh-process set-up: import fracsys from this checkout, build the
    inputs from the seed, make the first BLAS/FFT calls."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "fracsys" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracsys sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import fracsys

    if Path(fracsys.__file__).resolve().parent != (src / "fracsys").resolve():
        raise SystemExit(f"error: imported fracsys from {fracsys.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    workloads.warm_numerics()
    return workload, time.perf_counter() - t0


def probe_setup(args):
    """Set-up time of a fresh process, for the median behind setup_s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                         cwd=ROOT)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"error: set-up probe exited with status {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seconds, tracer):
    """Passes over the workload's operations while another pass, at the
    median pass length so far, still ends within `seconds`, and at least
    MIN_PASSES.  Only the operations are timed; checks run between them."""
    from workloads import CheckFailed

    passes, failures, walls = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        index = len(passes)
        pass_start = time.perf_counter()
        ops, total = [], 0.0
        for j, op in enumerate(workload.ops(index)):
            attempted += 1
            if tracer:
                tracer.op = (index, j)
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception:  # noqa: BLE001 - a raising operation counts as failed
                error = traceback.format_exc(limit=3)
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.op = None
            total += dt
            ops.append([op.label, dt])
            if error is None:
                try:
                    op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
                except Exception:  # noqa: BLE001 - a crashing check is a failed check
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append({"pass": index, "op": op.label, "error": error})
        passes.append({"pass_s": total, "ops": ops})
        now = time.perf_counter()
        walls.append(now - pass_start)
        if len(passes) >= MIN_PASSES and now - start + statistics.median(walls) > seconds:
            return passes, attempted, failures


def trace_summary(tracer, passes):
    import tracer as tracing

    by_pass = [[] for _ in passes]
    for span in tracer.spans:
        by_pass[span[5][0]].append(span)
    per_pass, layers = [], []
    for spans, p in zip(by_pass, passes):
        metrics, table = tracing.pass_metrics(spans, p["pass_s"])
        per_pass.append(metrics)
        layers.append(table)
    return tracing.median_metrics(per_pass), per_pass, layers


def main(argv=None):
    args = parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    if args.setup_probe:
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=SCRATCH))
        try:
            _, dt = timed_setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": dt}))
        return 0

    setups = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    tracer = None
    try:
        workload, dt = timed_setup(args.workload, args.seed, workdir)
        setups.append(dt)
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            passes, attempted, failures = run_passes(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from machine import machine_block

    pass_times = [p["pass_s"] for p in passes]
    failed = len(failures)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_block(ROOT), "setup_samples_s": setups,
        "passes": passes, "failures": failures,
    }
    if args.trace:
        metrics, per_pass, layers = trace_summary(tracer, passes)
        details.update(per_pass_metrics=per_pass, layers=layers)
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        out_metrics = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()}
    else:
        out_metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "passed_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    details["metrics"] = out_metrics
    runs = SCRATCH / "runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer:
        (runs / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))

    for f in failures:
        print(f"FAILED pass {f['pass']} {f['op']}: {f['error']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"pass times {[round(t, 3) for t in pass_times]} s, "
          f"set-ups {[round(t, 3) for t in setups]} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
