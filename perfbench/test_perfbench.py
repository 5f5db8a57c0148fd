#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs at toy size (scale 8, 6 seconds), untraced and traced;
the tests assert that every metric BENCHMARK.json names, and every
end-to-end metric, is printed exactly once with its unit, that a
deliberately corrupted answer fails the run, and that the benchmark
refuses to run without the program's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--scale", "8", "--seconds", "6"]


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + args, cwd=cwd,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_run(self, workload, trace):
        kind = "per_layer" if trace else "end_to_end"
        code, out, err = run(["--workload", workload, "--seed", "7",
                              "--trace", str(trace)] + TOY)
        self.assertEqual(code, 0, out + err)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("seed 7", lines[0])
        expected = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            printed = [l for l in lines[:-1]
                       if re.fullmatch(r"%s %s = \S+ %s" % (
                           kind, re.escape(name), re.escape(unit)), l)]
            self.assertEqual(len(printed), 1, name)
            if not trace:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        if not trace:
            # The end-to-end metrics without a bound are printed too, once
            # each, with the unit BENCHMARK.json gives them under per_layer.
            layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
            unbounded = [re.fullmatch(r"unbounded (\S+) = \S+ (\S+)", l)
                         for l in lines[:-1]]
            unbounded = [m.groups() for m in unbounded if m]
            self.assertEqual(len(expected) + len(unbounded), 14)
            self.assertEqual(len(dict(unbounded)), len(unbounded))
            for name, unit in unbounded:
                self.assertEqual(layer.get(name), unit, name)

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["baseline", "optimized"])

    def test_baseline_untraced(self):
        self.check_run("baseline", 0)

    def test_baseline_traced(self):
        self.check_run("baseline", 1)

    def test_optimized_untraced(self):
        self.check_run("optimized", 0)

    def test_optimized_traced(self):
        self.check_run("optimized", 1)

    def test_corrupted_answer_is_caught(self):
        code, out, err = run(["--workload", "baseline", "--seed", "3",
                              "--trace", "0", "--corrupt-answer"] + TOY)
        self.assertNotEqual(code, 0, out + err)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        mismatched = re.search(r"answers: \d+ checked, (\d+) mismatched",
                               out)
        # One corrupted hot-cache answer and one corrupted served read.
        self.assertGreaterEqual(int(mismatched.group(1)), 2)

    def test_refuses_without_program_sources(self):
        bare = os.path.join(build_root(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "baseline",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
