#!/usr/bin/env python3
"""Line, branch and function coverage of src/ from a gcc --coverage build.

Build and run the tests with the `coverage` preset, then aggregate:

    cmake --preset coverage
    cmake --build --preset coverage -j
    ctest --preset coverage -j 4
    python3 scripts/coverage.py                  # the per-module table
    python3 scripts/coverage.py --file src/exec/candidate_generator.cc
    python3 scripts/coverage.py --functions      # never-executed functions

The script runs `gcov --json-format --stdout` on every .gcda file under
the build tree and merges the results: a source line counts as covered
when any translation unit executed it, and a branch when any translation
unit took it. Branches that only exceptions take are left out, as are
files outside src/. Counters accumulate across runs; delete the .gcda
files (or the build tree) to start over.

--functions lists, as file:line and demangled name, every src/ function
that no translation unit executed. Functions sharing a definition site
(template instantiations, a constructor's complete- and base-object
symbols) are one entry, executed when any of them ran. An inline or
template function that no translation unit instantiates has no object
code, so gcov never sees it and it cannot be listed.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gcov_json(gcda):
    """The JSON documents gcov prints for one .gcda file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--branch-probabilities",
         "--object-directory", os.path.dirname(gcda), gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True,
        check=False)
    if out.returncode != 0:
        sys.exit(f"gcov failed on {gcda}:\n{out.stderr}")
    decoder = json.JSONDecoder()
    text, pos, docs = out.stdout, 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def collect(build):
    """(file -> line -> count, file -> (line, branch) -> count,
    (file, line, column) -> [count, names]) over src/."""
    lines = collections.defaultdict(lambda: collections.defaultdict(int))
    branches = collections.defaultdict(lambda: collections.defaultdict(int))
    functions = collections.defaultdict(lambda: [0, set()])
    src = os.path.join(ROOT, "src") + os.sep
    gcdas = []
    for directory, _, files in os.walk(build):
        gcdas += [os.path.join(directory, f) for f in files
                  if f.endswith(".gcda")]
    if not gcdas:
        sys.exit(f"no .gcda files under {build}: build with the coverage "
                 "preset and run ctest first")
    for gcda in sorted(gcdas):
        for doc in gcov_json(gcda):
            cwd = doc.get("current_working_directory", "")
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                rel = os.path.relpath(path, ROOT)
                for line in f["lines"]:
                    n = line["line_number"]
                    lines[rel][n] += line["count"]
                    taken = [b for b in line["branches"] if not b["throw"]]
                    for i, b in enumerate(taken):
                        branches[rel][(n, i)] += b["count"]
                for fn in f["functions"]:
                    site = functions[(rel, fn["start_line"],
                                      fn["start_column"])]
                    site[0] += fn["execution_count"]
                    site[1].add(fn.get("demangled_name") or fn["name"])
    return lines, branches, functions


def ratio(hit, total):
    return f"{hit:>6}/{total:<6} {100.0 * hit / total:5.1f}%" if total else \
        f"{hit:>6}/{total:<6}   n/a"


def table(lines, branches):
    modules = collections.defaultdict(lambda: [0, 0, 0, 0])
    for rel, counts in lines.items():
        m = modules[rel.split(os.sep)[1]]
        m[0] += sum(1 for c in counts.values() if c > 0)
        m[1] += len(counts)
        m[2] += sum(1 for c in branches[rel].values() if c > 0)
        m[3] += len(branches[rel])
    print(f"{'module':<12} {'lines':>20} {'branches':>20}")
    total = [0, 0, 0, 0]
    for name in sorted(modules):
        m = modules[name]
        total = [a + b for a, b in zip(total, m)]
        print(f"{name:<12} {ratio(m[0], m[1]):>20} {ratio(m[2], m[3]):>20}")
    print(f"{'total':<12} {ratio(total[0], total[1]):>20} "
          f"{ratio(total[2], total[3]):>20}")


def never_executed(functions):
    """Every definition site no translation unit executed, by file:line."""
    dead = sorted((rel, line, sorted(names))
                  for (rel, line, _), (count, names) in functions.items()
                  if count == 0)
    for rel, line, names in dead:
        more = f" [{len(names)} instantiations]" if len(names) > 1 else ""
        print(f"{rel}:{line}: {names[0]}{more}")
    print(f"{len(dead)} of {len(functions)} src/ functions never executed")


def annotate(rel, lines, branches):
    """The file with each executable line's count and branches taken."""
    rel = os.path.normpath(rel)
    if rel not in lines:
        sys.exit(f"{rel}: no coverage data (not under src/, or never built)")
    per_line = collections.defaultdict(list)
    for (n, _), count in sorted(branches[rel].items()):
        per_line[n].append(count)
    with open(os.path.join(ROOT, rel), encoding="utf-8") as source:
        for n, text in enumerate(source, start=1):
            if n in lines[rel]:
                count = str(lines[rel][n]) if lines[rel][n] else "#####"
            else:
                count = "-"
            taken = per_line.get(n)
            mark = (f"{sum(1 for c in taken if c)}/{len(taken)}"
                    if taken else "")
            print(f"{count:>10} {mark:>6}:{n:>5}:{text.rstrip()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build", default=os.path.join(ROOT, "build-coverage"),
                        help="coverage build tree (default: build-coverage)")
    parser.add_argument("--file", action="append", default=[],
                        help="print this src/ file with line counts and "
                             "branches taken/total (repeatable)")
    parser.add_argument("--functions", action="store_true",
                        help="list every src/ function no test executed")
    args = parser.parse_args()
    lines, branches, functions = collect(os.path.abspath(args.build))
    if args.functions:
        never_executed(functions)
    elif args.file:
        for rel in args.file:
            annotate(rel, lines, branches)
    else:
        table(lines, branches)


if __name__ == "__main__":
    main()
