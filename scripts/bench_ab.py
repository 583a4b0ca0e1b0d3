#!/usr/bin/env python3
"""Same-box A/B of the benchmark: a parent revision against the working tree.

    python3 scripts/bench_ab.py --rev <parent> [--workloads W ...] [--pairs 10]

Exports <rev> with `git archive` into a temporary directory, leaving git
state alone, and refuses to run unless tenetbench/ and BENCHMARK.json are
byte-identical in the export and in the working tree. Each side builds and
runs through its own tenetbench/run.py (`--trace 0`, for the run_seconds
that BENCHMARK.json sets) into its own CARGO_TARGET_DIR. Pair i runs both
sides with seed i, alternating which side goes first.

For every workload and every end-to-end metric of BENCHMARK.json it prints
both medians with quartiles, the change's wins (ties count for neither),
the change of the median in percent, the parent's interquartile range, and
whether two rules hold:

  gain   "yes" when at least ten pairs ran, the change wins at least 9/10
         of them, its median is better than the parent's by more than the
         parent's IQR, and it has no more failed or incorrect runs than
         the parent; "no" otherwise.
  bound  "holds" when every change run is better than every parent run.
         Otherwise "unresolved" when the parent's IQR is wider than the
         metric's bound in BENCHMARK.json (a fraction of the parent's
         median), since the runs then spread too widely to tell; else
         "holds" when the change's median is no worse than the parent's
         by more than the bound, and "BROKEN" when it is.

A run that fails or reports "correct": false is printed and counted, never
dropped. A failed run has no measured values, so its pair is no win for
either side, and it counts as ok_frac 0 since no operation of it passed
the reference check. A metric with no measured value on one side reads
"unresolved". Uses only the Python standard library.
"""

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHARED = ("tenetbench", "BENCHMARK.json")
SIDES = ("parent", "change")


def git(*args):
    cmd = ["git", "-C", ROOT, *args]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout


def export(rev, dest):
    """Extracts the tree of `rev` into `dest`."""
    archive = dest + ".tar"
    git("archive", "--format=tar", "-o", archive, rev)
    # git archive writes plain files; the "data" filter, where this Python
    # has it, only silences the warning about unfiltered extraction.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)
    os.remove(archive)


def read_files(root, rels):
    return {rel: open(os.path.join(root, rel), "rb").read() for rel in rels}


def shared_of_worktree():
    """Bytes of the working tree's benchmark files, build outputs excluded."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                 "--", *SHARED)
    rels = [p.decode() for p in listed.split(b"\0") if p]
    return read_files(ROOT, [r for r in rels if os.path.isfile(os.path.join(ROOT, r))])


def shared_of_export(tree):
    rels = []
    for top in SHARED:
        path = os.path.join(tree, top)
        if os.path.isfile(path):
            rels.append(top)
        for base, _, names in os.walk(path):
            rels += [os.path.relpath(os.path.join(base, n), tree) for n in names]
    return read_files(tree, rels)


def run_once(tree, target, workload, seed, seconds):
    """One run.py run; its final JSON result, or None when it failed."""
    cmd = [sys.executable, os.path.join("tenetbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def values_of(result, metrics):
    if result is None:
        return {m["name"]: 0.0 if m["name"] == "ok_frac" else None for m in metrics}
    return {m["name"]: result["metrics"].get(m["name"], {}).get("value") for m in metrics}


def quantile(sorted_xs, q):
    """Linear-interpolated quantile of a sorted, non-empty list."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def summary(xs):
    """(q1, median, q3) of the measured values, or None when there are none."""
    xs = sorted(xs)
    if not xs:
        return None
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def better(metric, a, b):
    """Whether value `a` is strictly better than `b` for `metric`."""
    return a < b if metric["better"] == "lower" else a > b


def bound_verdict(metric, parents, changes, gap, iqr, slack):
    """"holds", "unresolved" or "BROKEN"; see the module doc."""
    if all(better(metric, c, p) for c in changes for p in parents):
        return "holds"
    if iqr > slack:
        return "unresolved"
    return "holds" if gap >= -slack else "BROKEN"


def verdicts(metric, pairs, bad_runs):
    """One table row for `metric` over the (parent, change) value pairs."""
    name = metric["name"]
    parents = [p[name] for p, _ in pairs if p[name] is not None]
    changes = [c[name] for _, c in pairs if c[name] is not None]
    parent, change = summary(parents), summary(changes)
    wins = sum(1 for p, c in pairs
               if p[name] is not None and c[name] is not None and better(metric, c[name], p[name]))
    row = {"metric": name, "wins": f"{wins}/{len(pairs)}", "parent": parent, "change": change}
    if parent is None or change is None:
        row.update(delta=None, iqr=None, gain=False, bound="unresolved")
        return row
    p_med, c_med = parent[1], change[1]
    iqr = parent[2] - parent[0]
    gap = p_med - c_med if metric["better"] == "lower" else c_med - p_med
    slack = metric["bound"] * abs(p_med)
    row.update(
        delta=(c_med - p_med) / p_med * 100 if p_med else None,
        iqr=iqr,
        gain=(len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and gap > iqr
              and bad_runs["change"] <= bad_runs["parent"]),
        bound=bound_verdict(metric, parents, changes, gap, iqr, slack),
    )
    return row


def fmt(x):
    return "n/a" if x is None else f"{x:.4g}"


def spread(s):
    return "n/a" if s is None else f"{fmt(s[1])} [{fmt(s[0])}, {fmt(s[2])}]"


def print_table(workload, rows, bad_runs, n_pairs):
    tally = ", ".join(f"{side} {bad_runs[side]} failed or incorrect" for side in SIDES)
    print(f"\n{workload}: {n_pairs} pairs; {tally}")
    header = ("metric", "parent med [q1, q3]", "change med [q1, q3]", "wins", "delta%",
              "parent IQR", "gain", "bound")
    table = [header]
    for r in rows:
        delta = "n/a" if r["delta"] is None else f"{r['delta']:+.1f}"
        table.append((r["metric"], spread(r["parent"]), spread(r["change"]), r["wins"], delta,
                      fmt(r["iqr"]), "yes" if r["gain"] else "no", r["bound"]))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = bench["end_to_end"]
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    rev = git("rev-parse", "--verify", args.rev + "^{commit}").decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        parent_tree = os.path.join(tmp, "parent")
        export(rev, parent_tree)
        a, b = shared_of_export(parent_tree), shared_of_worktree()
        differing = sorted(r for r in set(a) | set(b) if a.get(r) != b.get(r))
        if differing:
            print("bench_ab: tenetbench/ or BENCHMARK.json differs from " + rev
                  + "; the two sides would not run the same benchmark:", file=sys.stderr)
            for r in differing:
                print("  " + r, file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": ROOT}
        targets = {side: os.path.join(tmp, side + "-target") for side in SIDES}
        seconds = bench["run_seconds"]
        print(f"parent {rev}, change = working tree of {ROOT}; "
              f"{os.cpu_count()} CPUs; {args.pairs} pairs x {seconds} s")

        for workload in workloads:
            pairs, bad_runs = [], dict.fromkeys(SIDES, 0)
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                got = {}
                for side in order:
                    result = run_once(trees[side], targets[side], workload, i, seconds)
                    got[side] = values_of(result, metrics)
                    if result is None:
                        state = "FAILED"
                    elif result.get("correct") is not True:
                        state = "INCORRECT"
                    else:
                        state = "ok"
                    bad_runs[side] += state != "ok"
                    shown = " ".join(f"{k}={fmt(v)}" for k, v in got[side].items())
                    print(f"{workload} pair {i} {side}: {state} {shown}", flush=True)
                pairs.append((got["parent"], got["change"]))
            rows = [verdicts(m, pairs, bad_runs) for m in metrics]
            print_table(workload, rows, bad_runs, len(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
