#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload baseline --seed 1 --seconds 40 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; an up-to-date build is reused.  Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.  Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build gm_perfbench; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "gm_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "gm_perfbench")


def option(args, name):
    """Value following `name` in args, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary] + args
    if option(args, "--trace") == "1" and "--trace-out" not in args:
        spans = "spans-%s-%s.jsonl" % (option(args, "--workload"),
                                       option(args, "--seed"))
        cmd += ["--trace-out", os.path.join(build_dir, spans)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
