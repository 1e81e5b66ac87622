#!/usr/bin/env python3
"""Builds bench_e2e against the raqlet sources of this checkout and runs it.

    python3 bench_e2e/run.py --workload interactive_reads --seed 1 \
        --seconds 20 --trace 0
    python3 bench_e2e/run.py --selftest

The build goes to .bench_build/e2e (a no-op once built); a traced run writes
its span and per-layer files to .bench_build/out unless --out is given.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "bench_e2e")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, stdout=sys.stderr)
        if result.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return result.returncode
    return subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                          stdout=sys.stderr).returncode


def main(argv):
    code = build()
    if code != 0:
        print("bench_e2e: build failed", file=sys.stderr)
        return code or 1
    args = list(argv)
    if "--trace" in args and "--out" not in args:
        value = args[args.index("--trace") + 1:][:1]
        if value == ["1"]:
            os.makedirs(OUT, exist_ok=True)
            args += ["--out", OUT]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "bench_e2e")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
