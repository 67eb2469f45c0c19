#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs `python3 hackbench/run.py` once per seed for each named workload and
prints, per metric, the median of the runs and the spread (Q3 - Q1) / median,
with quartiles from statistics.quantiles(values, n=4) — the figure each
metric's bound in BENCHMARK.json is checked against.

    python3 hackbench/spread.py --workloads paper-cell dense-down --seeds 1-10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    for workload in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print("%s seed %d: FAILED" % (workload, seed))
                failed = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = " (bound %.3g: %s)" % (
                    bound, "ok" if spread <= bound / 3 else
                    "within bound" if spread <= bound else "TOO WIDE")
            print("%s %-16s median %.6g spread %.4f%s" % (
                workload, name, med, spread, verdict), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
