#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seed-base 1]
                                [--seconds 10] [--trace 0]

Runs run.py --runs times per workload, each with another seed, and prints
for every metric its median, quartiles and spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median — the number a metric's bound in BENCHMARK.json must
stay above.  Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the metric lists live there)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: FAILED (exit {proc.returncode})")
                for line in proc.stderr.splitlines():
                    if "FAILED" in line or "run.py" in line:
                        print(f"    {line}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({args.runs} runs)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            print(f"  {name:34s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {s:.3f}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
