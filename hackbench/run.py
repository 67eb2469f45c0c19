#!/usr/bin/env python3
"""Build hackbench from source and run one workload.

Usage (from the repository root):

    python3 hackbench/run.py --workload paper-cell --seed 1 --seconds 10 --trace 0
    python3 hackbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/hackbench (default .bench_build/hackbench)
under the current directory; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the spans are written to
<build>/traces/<workload>-seed<seed>.jsonl. The exit status is the
benchmark's: nonzero when the build fails or any scenario run fails a check.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "hackbench")


def run_child(cmd, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if run_child(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("hackbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("hackbench_selftest")
        return 1 if binary is None else run_child([binary])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("hackbench")
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    # One CPU for the whole measurement: migrating between cores that run
    # at different speeds (a core shared with interrupt work or a busy
    # sibling thread) makes host time per run bimodal. The highest-numbered
    # allowed CPU is the one least likely to carry the system's own work.
    cpu = max(os.sched_getaffinity(0))
    return run_child(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


if __name__ == "__main__":
    sys.exit(main())
