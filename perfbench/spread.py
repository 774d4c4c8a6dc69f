#!/usr/bin/env python3
"""Seed spread of the benchmark: runs one workload at several seeds and
prints, per metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to a third of the metric's bound.

    python3 perfbench/spread.py --workload dense_sweep --seeds 1-10 [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True).stdout
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        limit = f"  (bound/3 {bound / 3:.4f})" if bound else ""
        print(f"{name:28s} median {med:.6g}  spread {spread:.4f}{limit}")


if __name__ == "__main__":
    main()
