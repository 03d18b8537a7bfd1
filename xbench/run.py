#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs it.

Usage, from the root of the repository:
    python3 xbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/xbench; run-time files (file-backed
databases, trace spans) go to .bench_build/xbench-run and the databases are
removed when the run ends. The last line of standard output is the JSON
result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "xbench")


def build():
    log = os.path.join(ROOT, ".bench_build", "xbench-build.log")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    with open(log, "w") as out:
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j4", "--target", "xbench"]]
        for step in steps:
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) or step[1] == "--build":
                if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                    with open(log) as f:
                        sys.stderr.write(f.read()[-4000:])
                    return False
    return True


def main():
    if not build():
        sys.stderr.write("xbench: build failed\n")
        return 1
    binary = os.path.join(BUILD, "xbench")
    args = sys.argv[1:] + ["--work-dir", os.path.join(ROOT, ".bench_build", "xbench-run")]
    return subprocess.call([binary] + args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
