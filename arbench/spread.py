#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 arbench/spread.py --workload <name> [--seeds 1-10] [--trace 0]

For every metric: the median over the runs, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json. Use it
to check that the benchmark is steady before trusting a comparison. Each
run's result line is appended to `.bench_out/spread-<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    cmd = bench["command"]
    values = {}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.jsonl")
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd
            + ["--workload", args.workload, "--seed", str(seed)]
            + ["--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(
            f"seed {seed}: "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            file=sys.stderr,
        )
    print(f"{'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(
            f"{name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
            f"{'' if bound is None else bound:>6} {flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
