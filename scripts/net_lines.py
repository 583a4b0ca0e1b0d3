#!/usr/bin/env python3
"""Net production and test lines of Rust code between a revision and the working tree.

    python3 scripts/net_lines.py --rev <rev>

For every `.rs` file that differs between <rev> and the working tree
(untracked files included, counted as wholly added), prints the change in
production lines, the change in test lines and their sum, then the totals.
Files under `vendor/` and `tenetbench/` are skipped.

A line is a test line when its file lies under a `tests/` or `benches/`
directory, or when it lies in an item marked `#[cfg(test)]`: from the
item's doc comments and attributes through its closing brace (or its `;`).
Items are found by brace matching on the source with comments, strings,
raw strings and char literals blanked out. Every other line, blank lines
and comments included, is a production line, so for each file the two
changes add up to its `git diff --numstat` net; the script checks that and
fails if they do not.

Absolute counts come from diffing against git's empty tree:
`--rev 4b825dc642cb6eb9a060e54bf8d69288fbee4904`. Uses only the Python
standard library.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = ("vendor/", "tenetbench/")
TEST_DIRS = {"tests", "benches"}
CFG_TEST = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")
RAW_OPEN = re.compile(r"#*\"")  # after `r`, `br` or `cr`


def git(*args):
    cmd = ["git", "-C", ROOT, *args]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE).stdout


def n_lines(text):
    """Lines as git counts them: a last line without a newline counts."""
    return text.count("\n") + (1 if text and not text.endswith("\n") else 0)


def mask(src):
    """`src` with comments, strings and char literals replaced by spaces;
    newlines are kept, so offsets and line numbers do not move."""
    out = list(src)
    n = len(src)
    i = 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c == "'":
            if src.startswith("\\", i + 1):
                j = src.find("'", i + 3)
                j = n - 1 if j < 0 else j
                blank(i, j + 1)
                i = j + 1
            elif i + 2 < n and src[i + 2] == "'":
                blank(i, i + 3)
                i += 3
            else:
                i += 1  # a lifetime or a label
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            raw = RAW_OPEN.match(src, j)
            if src[i:j] in ("r", "br", "cr") and raw:
                hashes = raw.end() - j - 1
                close = src.find('"' + "#" * hashes, raw.end())
                close = n if close < 0 else close + 1 + hashes
                blank(i, close)
                j = close
            i = j
        else:
            i += 1
    return "".join(out)


def item_end(code, i):
    """Offset of the `}` or `;` that ends the item whose text starts at
    `i` (after its attributes)."""
    nest = 0  # parentheses and brackets
    while i < len(code):
        c = code[i]
        if c in "([":
            nest += 1
        elif c in ")]":
            nest -= 1
        elif c == ";" and nest == 0:
            return i
        elif c == "{" and nest == 0:
            depth = 0
            while i < len(code):
                if code[i] == "{":
                    depth += 1
                elif code[i] == "}":
                    depth -= 1
                    if depth == 0:
                        return i
                i += 1
            return len(code) - 1
        i += 1
    return len(code) - 1


def split_counts(path, text):
    """(production lines, test lines) of one version of a file."""
    total = n_lines(text)
    if TEST_DIRS.intersection(path.split("/")[:-1]):
        return 0, total
    code = mask(text)
    lines = text.split("\n")
    test = set()
    end = -1
    for m in CFG_TEST.finditer(code):
        if m.start() <= end:
            continue  # nested inside an item already counted
        end = item_end(code, m.end())
        first = code.count("\n", 0, m.start())
        last = code.count("\n", 0, end)
        # The item's own doc comments and attributes above the cfg line.
        while first > 0 and lines[first - 1].lstrip().startswith(("///", "#[")):
            first -= 1
        test.update(range(first, last + 1))
    test_lines = len([k for k in test if k < total])
    return total - test_lines, test_lines


def changed_files(rev):
    """{path: numstat net} of the `.rs` files that differ from `rev`."""
    out = {}
    numstat = git("diff", "--numstat", "--no-renames", rev, "--", "*.rs")
    for row in numstat.decode().splitlines():
        added, deleted, path = row.split("\t", 2)
        out[path] = int(added) - int(deleted)
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "*.rs")
    for path in untracked.decode().splitlines():
        out[path] = n_lines(read_worktree(path))
    return {p: net for p, net in out.items() if not p.startswith(SKIPPED)}


def read_worktree(path):
    full = os.path.join(ROOT, path)
    if not os.path.exists(full):
        return ""
    with open(full, "rb") as f:
        return f.read().decode("utf-8", "surrogateescape")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", required=True, help="revision to compare against")
    args = ap.parse_args()
    files = changed_files(args.rev)
    in_rev = set(git("ls-tree", "-r", "--name-only", args.rev).decode().splitlines())
    rows = []
    for path in sorted(files):
        old = ""
        if path in in_rev:
            old = git("show", f"{args.rev}:{path}").decode("utf-8", "surrogateescape")
        old_prod, old_test = split_counts(path, old)
        new_prod, new_test = split_counts(path, read_worktree(path))
        prod, test = new_prod - old_prod, new_test - old_test
        if prod + test != files[path]:
            sys.exit(f"{path}: {prod} + {test} != numstat net {files[path]}")
        rows.append((path, prod, test))
    width = max([len(r[0]) for r in rows] + [len("total")])
    print(f"{'file':<{width}}  {'prod':>7}  {'test':>7}  {'net':>7}")
    for path, prod, test in rows:
        print(f"{path:<{width}}  {prod:>+7}  {test:>+7}  {prod + test:>+7}")
    prod = sum(r[1] for r in rows)
    test = sum(r[2] for r in rows)
    print(f"{'total':<{width}}  {prod:>+7}  {test:>+7}  {prod + test:>+7}")
    print(f"{len(rows)} files")


if __name__ == "__main__":
    main()
