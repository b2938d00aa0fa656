#!/usr/bin/env python3
"""Self-test of the pipeline benchmark.

Runs every workload once in quick mode (small inputs, one warm pass) and
checks that each metric BENCHMARK.json names is printed with its unit, and
that each correctness gate rejects a planted fault:

    python3 perfbench/test_perfbench.py [--bench BIN --cli SPA_CLI]

Without --bench/--cli it builds through perfbench/run.py first. The
perfbench package also registers this file as its ctest.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, ".bench_build", "spa_perfbench")
CLI = os.path.join(ROOT, ".bench_build", "spa_cli")
WORKLOADS = ["corpus", "gen-fields", "gen-dealloc"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra, cli=None):
    cmd = [BENCH, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--quick", "--root", ROOT,
           "--cli", cli or CLI,
           "--trace-out", os.path.join(SCRATCH, "trace-%s.json" % workload)]
    done = subprocess.run(cmd + list(extra), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    lines = done.stdout.strip().splitlines()
    return done, lines, json.loads(lines[-1]) if lines else None


def printed_metrics(lines):
    """{name: unit} of the "metric <name> <value> <unit>" lines."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            float(parts[2])
            found[parts[1]] = parts[3]
    return found


class QuickRuns(unittest.TestCase):
    def check_metrics(self, trace, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done, lines, result = run_bench(workload, trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 3)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                printed = printed_metrics(lines)
                for name, unit in want.items():
                    self.assertEqual(printed.get(name), unit, name)
                if trace == 0:
                    self.assertEqual(printed.get("failed_frac"), "frac")
        return result

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics_and_trace_file(self):
        self.check_metrics(1, "per_layer")
        with open(os.path.join(SCRATCH, "trace-gen-dealloc.json")) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for span in ("workload", "pass", "cfront.parse", "norm.normalize",
                     "pta.setup", "pta.solve", "flow.flow", "check.check",
                     "emit.sarif", "emit.edges", "pta.teardown"):
            self.assertIn(span, names)
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0
                            for e in events))


class Gates(unittest.TestCase):
    def assert_rejected(self, done, result, message):
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn(message, done.stderr)

    def test_reference_digest_under_another_model_is_rejected(self):
        for workload in ("corpus", "gen-fields"):
            with self.subTest(workload=workload):
                done, _, result = run_bench(workload, 0, "--plant-mismatch")
                self.assert_rejected(done, result, "naive reference engine")

    def test_changed_inputs_are_rejected(self):
        with open(os.path.join(ROOT, "perfbench", "workloads.json")) as f:
            doc = json.load(f)
        for w in doc["workloads"]:
            w["quick_fingerprint"]["stmts"] += 1
        path = os.path.join(SCRATCH, "workloads-tampered.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        done, _, result = run_bench("gen-dealloc", 0, "--fingerprints", path)
        self.assert_rejected(done, result, "normalized sizes differ")

    def test_option_drift_between_cli_and_benchmark_is_rejected(self):
        wrapper = os.path.join(SCRATCH, "spa_cli_scc")
        with open(wrapper, "w") as f:
            f.write('#!/bin/sh\nexec "%s" "$@" --engine=scc\n' % CLI)
        os.chmod(wrapper, 0o755)
        done, _, result = run_bench("corpus", 0, cli=wrapper)
        self.assert_rejected(done, result, "configuration parity")

    def test_incomplete_checkout_fails_without_a_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, text=True, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--bench")
    parser.add_argument("--cli")
    args, rest = parser.parse_known_args()
    if args.bench and args.cli:
        BENCH, CLI = args.bench, args.cli
    else:
        subprocess.run([sys.executable, os.path.join(ROOT, "perfbench",
                                                     "run.py"),
                        "--workload", "corpus", "--seconds", "0", "--quick"],
                       check=True, stdout=subprocess.DEVNULL)
    with tempfile.TemporaryDirectory(
            dir=os.path.dirname(os.path.abspath(BENCH))) as SCRATCH:
        unittest.main(argv=[sys.argv[0]] + rest)
