#!/usr/bin/env python3
"""Builds the benchmark (engine from src/ plus the perfbench driver, CMake
Release) and runs it.

    python3 perfbench/run.py --workload rule_oltp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); all arguments go to the
driver, whose last line of output is the result JSON. Every ARIEL_*
variable is removed from the driver's environment, so it measures the
engine's default configuration.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARIEL_")}
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
