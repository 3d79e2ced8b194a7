#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bmc-dlx|sweep-long|serve-mix \
        --seed N --seconds S --trace 0|1

The benchmark is an OCaml executable of this dune project
(perfbench/bench.ml); this script builds it with dune, then runs it with
the same arguments.  Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.  The exit code
is non-zero, with no result printed, when the sources or the build are
missing or broken.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main() -> int:
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            print(f"run.py: {need} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
