#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark binary from the checkout's sources (incrementally),
runs one workload in its own process, and prints the
binary's report.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload dense_sweep --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench under the checkout root.  Any failure —
build, run, a failed metric check — exits non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_sweep", "compound_sweep", "eco_service", "hier_1m")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, jobs):
    """Configures and builds the perfbench binary (incrementally)."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release",
                 # Keep compiler caches from writing outside the checkout.
                 "-DCCACHE_PROGRAM=CCACHE_PROGRAM-NOTFOUND"]
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if fresh and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    step(configure)
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", str(jobs)])
    return os.path.join(build_dir, "perfbench")


def step(cmd):
    # Build chatter goes to stderr: stdout carries only the report.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850, check=False)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        default=len(os.sched_getaffinity(0)))
    args = parser.parse_args()

    target = (os.environ.get("CARGO_TARGET_DIR")
              or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir, max(args.threads, 1))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{args.workload} exited with {done.returncode}")

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the binary's last line is not a JSON result")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        fail(f"metric names or units differ from BENCHMARK.json: {diff}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
