#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints, per
metric, the median and the distance between the first and third quartiles
as a share of the median, next to the metric's bound from BENCHMARK.json:

    python3 perfbench/spread.py --workloads gen-dealloc --seeds 1-5

A spread above a third of its bound (setup_s excepted) marks the metric
"WIDE". Per-run JSON lines are appended to --log when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="corpus,gen-fields,gen-dealloc")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--log")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", args.trace]
            started = time.time()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            elapsed = time.time() - started
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                ok = False
                print("%s seed %d: exit %d, %s" % (
                    workload, seed, done.returncode, result), flush=True)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed,
                                          "elapsed_s": round(elapsed, 1),
                                          "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            wide = bound is not None and name != "setup_s" and \
                spread > bound / 3
            ok = ok and not wide
            print("%-12s %-18s median %-12.6g spread %6.3f  bound %s%s" % (
                workload, name, med, spread, bound,
                "  WIDE" if wide else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
