#!/usr/bin/env python3
"""End-to-end pipeline benchmark for spa.

Builds the benchmark package (perfbench/CMakeLists.txt) into .bench_build
at the root of the checkout, then runs one workload:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 adds
traced passes and reports the per-layer metrics. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 only when every pass and gate succeeded. Extra arguments
(--quick, --plant-mismatch) go to the benchmark binary unchanged.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["corpus", "gen-fields", "gen-dealloc"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the binaries up to date."""
    for needed in ("src/CMakeLists.txt", "tools/spa_cli.cpp", "corpus"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: run from a full spa checkout" % (needed, ROOT))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "spa_perfbench", "spa_cli"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()
    build()
    command = [os.path.join(BUILD, "spa_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", ROOT, "--cli", os.path.join(BUILD, "spa_cli"),
               "--trace-out", os.path.join(
                   BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))
               ] + extra
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
