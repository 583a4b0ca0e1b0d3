#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

    python3 tenetbench/run.py --workload <dse_conv|analyze_cold|serve_mixed>
                              --seed N --seconds S --trace <0|1>

Run it from the repository root. The harness is a Cargo package of its own
(tenetbench/harness) that depends on the repository's crates by path; it
is built into $CARGO_TARGET_DIR (default: .bench_build). Each workload runs
in its own harness process, which checks its outputs against the committed
references in tenetbench/refs and prints one JSON result line last; this
script relays that line and exits non-zero when the build or the run fails.

    python3 tenetbench/run.py --workload W --seed N --repeat-check

runs the traced run twice with one seed and fails unless every exact count
(ISL lookups, misses and fast-path dispatches, dedup hits and misses, DSE
validity) repeats.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dse_conv", "analyze_cold", "serve_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A harness run must end well inside the benchmark's per-run limit.
RUN_TIMEOUT_S = 170


def build():
    """Builds the harness; returns its path, or None when the build fails."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "harness", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    path = os.path.join(target, "release", "tenetbench")
    return path if os.path.isfile(path) else None


def run_harness(binary, args, trace):
    """Runs one harness process; returns (stdout lines, exit code)."""
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "1" if trace else "0",
        "--refs", os.path.join(HERE, "refs"),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tenetbench: the harness ran past its time limit", file=sys.stderr)
        return [], 1
    return done.stdout.splitlines(), done.returncode


def parse_result(lines):
    """The final JSON object of a harness run, or None if malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def counts_of(lines):
    for line in lines:
        if line.startswith('{"counts"'):
            return json.loads(line)["counts"]
    return None


def repeat_check(binary, args):
    """Two traced runs of one seed must give identical exact counts."""
    seen = []
    for _ in range(2):
        lines, code = run_harness(binary, args, trace=True)
        counts = counts_of(lines)
        if code != 0 or counts is None:
            print("tenetbench: traced run failed", file=sys.stderr)
            return 1
        seen.append(counts)
    first, second = seen
    differing = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counts": first, "differing": differing}))
    return 1 if differing else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("tenetbench: cannot build the harness (run from the repository root)",
              file=sys.stderr)
        return 1
    if args.repeat_check:
        return repeat_check(binary, args)
    lines, code = run_harness(binary, args, trace=bool(args.trace))
    result = parse_result(lines)
    if code != 0 or result is None:
        print("tenetbench: the harness failed", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
