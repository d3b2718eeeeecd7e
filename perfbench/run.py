#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload embed|feedback|http --seed N \
        --seconds S --trace 0|1

Run it from the root of the repository. It builds perfbench/main.exe
with dune (build output goes to standard error), then runs it with the
same arguments. The benchmark's last line of standard output is the
result JSON; its exit code is passed through, so a failed build or a
failed correctness gate exits non-zero.
"""

import os
import subprocess
import sys


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
