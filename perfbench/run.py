#!/usr/bin/env python3
"""Build the benchmark from the checkout and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exec --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, then runs it with the same
arguments in the checkout's root. Its standard output, whose last line
is the JSON result, and its exit code are passed through. Exits non-zero
without a result when the checkout cannot be built (for instance when
only the benchmark's own files are present).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("perfbench: no dune-project at %s: not a checkout\n" % ROOT)
        return 1
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
