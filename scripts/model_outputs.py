#!/usr/bin/env python3
"""Figure and table output of a base revision against the working tree.

    python3 scripts/model_outputs.py --rev <base>

Exports <base> with `bench_ab.py`'s `export` into a temporary directory
(set TMPDIR to keep it off /tmp), builds the `tenet-bench` binaries in
release mode on both sides, the base into its own CARGO_TARGET_DIR and the
working tree into its usual target, and runs fig06-fig12, table1, table3
and hardware_dse on each side. Exits 1, printing a diff, when any binary's
stdout differs between the sides or a binary fails on either side. fig08
prints wall-clock modeling times, so the trailing number of each of its
lines (the `time(s)` column) is dropped before comparing. Uses only the
Python standard library.
"""

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
import time

from bench_ab import ROOT, export, git

BINS = ("fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
        "table1", "table3", "hardware_dse")
TIMED = {"fig08"}
TRAILING_NUMBER = re.compile(r"\s+[-+0-9.eE]+$")


def build(tree, target):
    env = dict(os.environ)
    if target:
        env["CARGO_TARGET_DIR"] = target
    subprocess.run(["cargo", "build", "--release", "-q", "-p", "tenet-bench", "--bins"],
                   cwd=tree, env=env, check=True)
    return target or os.environ.get("CARGO_TARGET_DIR") or os.path.join(tree, "target")


def run(tree, target, name):
    """Stdout of one binary, or None when it fails."""
    done = subprocess.run([os.path.join(target, "release", name)], cwd=tree,
                          stdout=subprocess.PIPE, text=True)
    return done.stdout if done.returncode == 0 else None


def comparable(name, out):
    if name not in TIMED:
        return out.splitlines()
    return [TRAILING_NUMBER.sub("", line) for line in out.splitlines()]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the base revision")
    args = parser.parse_args()
    rev = git("rev-parse", "--verify", args.rev + "^{commit}").decode().strip()
    sys.stdout.reconfigure(line_buffering=True)

    with tempfile.TemporaryDirectory(prefix="model_outputs-") as tmp:
        base_tree = os.path.join(tmp, "base")
        export(rev, base_tree)
        targets = {"base": build(base_tree, os.path.join(tmp, "base-target")),
                   "change": build(ROOT, None)}
        trees = {"base": base_tree, "change": ROOT}
        print(f"base {rev}, change = working tree of {ROOT}")
        bad = []
        for name in BINS:
            outs, secs = {}, {}
            for side in ("base", "change"):
                t0 = time.monotonic()
                outs[side] = run(trees[side], targets[side], name)
                secs[side] = time.monotonic() - t0
            timing = f"base {secs['base']:.1f} s, change {secs['change']:.1f} s"
            if None in outs.values():
                failed = " and ".join(side for side, out in outs.items() if out is None)
                print(f"{name}: FAILED on {failed} ({timing})")
                bad.append(name)
                continue
            base, change = (comparable(name, outs[side]) for side in ("base", "change"))
            if base == change:
                print(f"{name}: same ({timing})")
                continue
            print(f"{name}: DIFFERS ({timing})")
            print("\n".join(difflib.unified_diff(
                base, change, f"{name} at {rev[:12]}", f"{name} in the working tree",
                lineterm="", n=1)))
            bad.append(name)
        if bad:
            print(f"stdout differs or fails: {', '.join(bad)}")
            return 1
        print(f"all {len(BINS)} outputs match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
