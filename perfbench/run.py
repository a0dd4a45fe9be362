#!/usr/bin/env python3
"""Builds the end-to-end training benchmark from source and runs it.

Run from the repository root:

    python3 perfbench/run.py --workload lstm_steady --seed 1 --seconds 10 --trace 0

The harness (perfbench/janus_e2e.cc) and the runtime libraries from src/
are compiled in Release mode into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); an up-to-date tree rebuilds in about a second.
Build output goes to stderr only when the build fails. With --trace 1 a
Chrome trace of the traced half is written to .../perfbench/traces/.
The last line of standard output is the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "janus_e2e", "-j", jobs],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no janus sources at %s/src\n" % ROOT)
        return 1
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    if not build(build_dir):
        return 1

    cmd = [os.path.join(build_dir, "janus_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
