#!/usr/bin/env python3
"""Builds and runs the eid end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dense_prop1 --seed 1 --seconds 15 --trace 0

Builds the library from ./src and the driver from ./perfbench into
./.bench_build/perfbench (Release), then runs the driver. The driver prints
a run header, every metric of the workload with its unit, and as its last
line one JSON object with the keys correct, attempted, failed and metrics.
Any other arguments (--tiny, --expect-digest HEX, --trace-out PATH) are
passed through to the driver.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("dense_prop1", "blocked_65k", "snapshot_cold_start",
             "incremental_churn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """The git commit, or a digest of the library sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures once, then lets the build tool skip what is up to date.
    Build output goes to stderr so stdout stays the driver's."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "eid_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found; run from the repository root")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [os.path.join(build_dir, "eid_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--git-commit", source_revision(root),
               *extra]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
