#!/usr/bin/env python3
"""Build and run the end-to-end repair benchmark.

Usage, from the root of a prdnn checkout:

    python3 perfbench/run.py --workload fog-lines --seed 1 --seconds 15 --trace 0

Every argument is passed to the `repair_e2e` binary (see perfbench/README.md).
The binary and the library are built with CMake into
`$CARGO_TARGET_DIR/perfbench-<hash of this directory>` (default
`.bench_build/...`) the first time, and brought up to date on later runs;
a checkout at another path never reuses that build. Build output goes to
stderr, so the last line on stdout is the binary's JSON result. Traces,
Prometheus pages and the served workload's artifact store are written under
`$CARGO_TARGET_DIR/perfbench-out`.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    """Configure (once) and build repair_e2e; returns the exit code."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "repair_e2e",
                  "-j", jobs])
    for step in steps:
        code = subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            return code
    return 0


def main():
    sources = [os.path.join(ROOT, "CMakeLists.txt"),
               os.path.join(ROOT, "src", "api", "RepairEngine.h")]
    if not all(os.path.isfile(p) for p in sources):
        print("perfbench: no prdnn sources beside perfbench/; run it from a "
              "full checkout", file=sys.stderr)
        return 2
    root = build_root()
    # CMake's cache pins the source directory it was configured from, so
    # each checkout gets a build directory of its own.
    key = hashlib.sha256(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(root, "perfbench-" + key)
    code = build(build_dir)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(build_dir, "repair_e2e")
    out_dir = os.path.join(root, "perfbench-out")
    sys.stdout.flush()
    return subprocess.call([binary, *sys.argv[1:], "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
