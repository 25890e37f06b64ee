"""Traced-run report: per-layer self time, calls and share of the pass for
every workload, the tracing overhead, the predicted layer pattern checked
against the trace, and the cross-check against the ROADMAP baseline table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out perfbench/REPORT.md]

Run from the root of a checkout.  For each workload it runs the benchmark
once untraced and once traced with the same seed, each in a fresh process,
and writes a Markdown report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SCRATCH, WORKLOAD_NAMES  # noqa: E402
from tracer import LAYERS, Tracer, layer_of, self_times  # noqa: E402

# predicted pattern: (workload, layers or span names, minimum share of its pass)
PREDICTIONS = (
    ("operators-1d", ("operators",), 0.80),
    # the dirichlet-2d part (assembly, dense solve, ball statistics >= 50%)
    # and the flow-1d part (solvers >= 80%) take about 3:2 of the pass
    ("dense-solvers", ("solvers", "operators.assemble_dirichlet",
                       "fields.ball_image_stats"), 0.60),
    ("periodic-sweep", ("quadrature", "kernels"), 0.50),
)
COVERAGE_FLOOR = 0.90

# ROADMAP baseline rows whose sizes a workload repeats: (row, table value,
# workload, operation label, span names or None for the whole operation)
SCHEME_BUILD = ("quadrature.scheme_for",)
BASELINE = (
    ("1-d apply_LK_field N=4097", "57 ms", "operators-1d", "apply_LK_field N=4097", None),
    # solve-linear runs first on the same grid, so it builds the scheme
    ("2-d scheme build h=1/32", "27 ms", "dense-solvers", "fracsys solve-linear h=1/32",
     SCHEME_BUILD),
    ("2-d assemble_dirichlet, 3205 unknowns", "0.4 s", "dense-solvers",
     "barrier_bound h=1/32", ("operators.assemble_dirichlet",)),
    ("2-d dense solve, 3205 unknowns", "0.5-0.7 s", "dense-solvers",
     "barrier_bound h=1/32", ("solvers.scipy.linalg.solve",)),
)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    stem = f"{workload}-seed{seed}-trace{trace}"
    details = json.loads((SCRATCH / "runs" / f"{stem}.json").read_text())
    spans = None
    if trace:
        spans = json.loads((SCRATCH / "runs" / f"{stem}-spans.json").read_text())
    return details, spans


def op_times(details):
    """Median duration of each operation label across passes."""
    times = defaultdict(list)
    for p in details["passes"]:
        for label, dt in p["ops"]:
            times[label].append(dt)
    return {label: statistics.median(v) for label, v in times.items()}


def span_time_by_op(details, spans, label, names, builds_only=False):
    """Median per-pass self time of the named spans inside operations with
    this label.  With builds_only, the wall time of scheme_for calls that
    missed the cache, over the passes that had a miss (the cache keeps a
    scheme across passes, so later passes hit)."""
    own = self_times([tuple(s) for s in spans])
    per_pass = defaultdict(float)
    for sid, _, name, t0, t1, (p, j), extra in spans:
        if details["passes"][p]["ops"][j][0] != label or name not in names:
            continue
        if builds_only:
            if extra:
                per_pass[p] += t1 - t0
        else:
            per_pass[p] += own[sid]
    return statistics.median(per_pass.values()) if per_pass else float("nan")


def span_cost(calls=200_000):
    """Time one traced call adds over a plain call, measured on a no-op."""
    def noop():
        return None

    tracer = Tracer()
    tracer.op = (0, 0)
    wrapped = tracer.wrap("bench.noop", noop)
    costs = []
    for fn in (noop, wrapped):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        costs.append(perf_counter() - t0)
    return (costs[1] - costs[0]) / calls


def fmt_s(x):
    return f"{x * 1e3:.1f} ms" if x < 1.0 else f"{x:.2f} s"


def pass_table(details, spans):
    """Accessors for the median over passes of self time and calls per
    layer or span name, and of the share of the pass taken by a group."""
    own = self_times([tuple(sp) for sp in spans])
    passes = details["passes"]
    times = [p["pass_s"] for p in passes]
    self_by = [defaultdict(float) for _ in passes]
    calls = [defaultdict(int) for _ in passes]
    for sid, _, name, _, _, (p, _), _ in spans:
        for key in (layer_of(name), name):
            self_by[p][key] += own[sid]
            calls[p][key] += 1

    def med(per_pass, key):
        return statistics.median(d.get(key, 0) for d in per_pass)

    def share(keys):
        return statistics.median(sum(d.get(k, 0.0) for k in keys) / t
                                 for d, t in zip(self_by, times))

    return lambda k: med(self_by, k), lambda k: med(calls, k), share


def layer_lines(details, spans):
    self_of, calls_of, share = pass_table(details, spans)
    lines = ["", "| layer | self time / pass | calls / pass | share |", "| --- | --- | --- | --- |"]
    lines += [f"| {layer} | {fmt_s(self_of(layer))} | {calls_of(layer):.0f} | "
              f"{100 * share((layer,)):.1f}% |" for layer in LAYERS]
    return lines


def workload_lines(name, plain, traced, spans, cost):
    pm, tm = plain[name]["metrics"], traced[name]["metrics"]
    pass_plain = pm["pass_s"]["value"]
    pass_traced = tm["trace.pass_s"]["value"]
    n_spans = tm["trace.spans"]["value"]
    lines = [f"### {name}", "",
             f"- untraced: pass_s {fmt_s(pass_plain)} over {len(plain[name]['passes'])} passes, "
             f"setup_s {pm['setup_s']['value']:.3f} s, "
             f"peak_rss_mb {pm['peak_rss_mb']['value']:.0f} MiB, "
             f"passed_frac {pm['passed_frac']['value']:.3f}",
             f"- traced: pass_s {fmt_s(pass_traced)} over {len(traced[name]['passes'])} passes; "
             f"tracing overhead {100 * (pass_traced / pass_plain - 1):+.1f}% measured "
             f"(one run each, so within run-to-run noise), "
             f"{100 * n_spans * cost / pass_traced:.3f}% estimated from "
             f"{n_spans:.0f} spans per pass at {cost * 1e6:.2f} µs each",
             f"- attributed to named layers: {100 * tm['trace.coverage']['value']:.1f}% "
             f"of the traced pass (floor {100 * COVERAGE_FLOOR:.0f}%)"]
    lines += layer_lines(traced[name], spans[name])
    lines += ["", "Per-layer metrics (median per pass, zeros omitted): "
              + ", ".join(f"`{k}` {v['value']:.4g} {v['unit']}" for k, v in tm.items()
                          if v["value"] and not k.endswith(".share")
                          and not k.startswith("trace.")), ""]
    return lines


def prediction_lines(traced, spans):
    lines = ["| workload | prediction | measured | verdict |", "| --- | --- | --- | --- |"]
    for name, parts, floor in PREDICTIONS:
        share = pass_table(traced[name], spans[name])[2](parts)
        verdict = "met" if share >= floor else "MISSED"
        lines.append(f"| {name} | {' + '.join(parts)} >= {100 * floor:.0f}% | "
                     f"{100 * share:.1f}% | {verdict} |")
    for name in WORKLOAD_NAMES:
        cov = traced[name]["metrics"]["trace.coverage"]["value"]
        verdict = "met" if cov >= COVERAGE_FLOOR else "MISSED"
        lines.append(f"| {name} | attributed >= {100 * COVERAGE_FLOOR:.0f}% | "
                     f"{100 * cov:.1f}% | {verdict} |")
    return lines


def baseline_lines(plain, traced, spans):
    lines = ["| ROADMAP row | table | measured (median) | source |", "| --- | --- | --- | --- |"]
    for row, table, name, label, names in BASELINE:
        if names is None:
            value = op_times(plain[name])[label]
            source = "untraced operation"
        else:
            build = names is SCHEME_BUILD
            value = span_time_by_op(traced[name], spans[name], label, names, build)
            what = "wall time of cache-missing" if build else "self time of"
            source = f"traced {what} {', '.join(names)} in `{label}`"
        lines.append(f"| {row} | {table} | {fmt_s(value)} | {source} |")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", type=Path, default=HERE / "REPORT.md")
    args = p.parse_args(argv)
    plain, traced, spans = {}, {}, {}
    for name in WORKLOAD_NAMES:
        plain[name], _ = run(name, args.seed, args.seconds, 0)
        traced[name], spans[name] = run(name, args.seed, args.seconds, 1)
        print(f"{name}: done", flush=True)
    cost = span_cost()
    machine = plain[WORKLOAD_NAMES[0]]["machine"]
    lines = ["# fracsys benchmark: traced-run report", "",
             f"Seed {args.seed}, up to {args.seconds:g} s measured per run, one fresh "
             "process per run. Generated by `python3 perfbench/report.py`.", "",
             "## Machine", "", "```", json.dumps(machine, indent=1), "```", "",
             "## Predicted layer pattern", ""]
    lines += prediction_lines(traced, spans)
    lines += ["", "## Workloads", ""]
    for name in WORKLOAD_NAMES:
        lines += workload_lines(name, plain, traced, spans, cost)
    lines += ["## ROADMAP baseline cross-check", ""]
    lines += baseline_lines(plain, traced, spans)
    args.out.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
