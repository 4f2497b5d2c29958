#!/usr/bin/env python3
"""Build the nanocost benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later calls only rebuild what changed.  Build output goes to stderr, so
the last line of stdout is the program's JSON result.  The exit code is
the program's: 0 when every output check passed, 1 when one failed or the
build failed, 2 on bad arguments or a tree without the library sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "nanocost_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "include", "nanocost")
    ):
        print("perfbench: no nanocost sources (src/, include/) next to perfbench/",
              file=sys.stderr)
        return 2
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    return 0


def main(argv):
    rc = build()
    if rc != 0:
        return rc
    # Relative, so Unix socket paths under it stay short.
    cmd = [PROGRAM] + argv + ["--workdir", os.path.join(".bench_build", "run")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: nanocost_bench did not finish within %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
