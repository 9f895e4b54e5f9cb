#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload shm_kv4 [--workload ...] \
        [--seeds 10] [--first-seed 1] [--seconds 10]

Runs perfbench/run.py --trace 0 once per seed (seeds first-seed ..
first-seed+seeds-1) and prints, for every end-to-end metric of
BENCHMARK.json, the median, the quartile spread (Q3 - Q1) / median and the
metric's bound. A benchmark is steady when every spread except setup_s is
below a third of its bound. Raw results go to .bench_out/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit("%s seed %d failed" % (workload, seed))
            runs.append(json.loads(lines[-1]))
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with open(os.path.join(ROOT, ".bench_out",
                               "spread-%s.json" % workload), "w") as f:
            json.dump(runs, f, indent=1)
        print("%s (%d seeds)" % (workload, len(runs)))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok = ok and steady
            print("  %-14s median %14.6g  spread %6.2f%%  bound %5.1f%%  %s"
                  % (m["name"], med, 100 * spread, 100 * m["bound"],
                     "ok" if steady else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
