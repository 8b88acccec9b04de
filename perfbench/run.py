#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build (build output goes
to standard error), then runs it with the same arguments. Its standard
output passes through unchanged: a readable report, then one JSON result
line. The traced run writes its trace under perfbench/out. Exits non-zero
without a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    if build.returncode != 0 or not os.path.isfile(exe):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([exe, *sys.argv[1:]], cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
