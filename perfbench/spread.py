"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Run from the root of a checkout.  Runs the benchmark once per seed and
workload, each in a fresh process, and prints for every end-to-end metric
its median and the distance between the first and third quartile as a share
of the median, next to a third of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args(argv)
    ok = True
    for name in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            for k in values:
                values[k].append(result["metrics"][k]["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  "correct" if result["correct"] else "FAILED", flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            within = spread < m["bound"] / 3
            print(f"  {name} {m['name']}: median {med:.4g} {m['unit']}, spread {spread:.4f} "
                  f"(a third of the bound: {m['bound'] / 3:.4f}) "
                  f"{'ok' if within else 'WIDE'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
