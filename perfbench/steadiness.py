#!/usr/bin/env python3
"""Run the benchmark over several seeds and record how steady it is.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 101-110 --out perfbench/STEADINESS.json

For every workload in BENCHMARK.json and every seed it runs the benchmark
command untraced, then records for each end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)), the spread (quartile distance
over the median) against the metric's bound, and the raw values. Metrics
whose spread exceeds a tenth are listed under "not_within_a_tenth".
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="101-110", help="seeds, e.g. 101-110 or 1,5,9")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--out", default="", help="write the record here (default: stdout)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}, "not_within_a_tenth": []}
    for name in names:
        values = {m: [] for m in bounds}
        for seed in seeds:
            result = run_once(bench, name, seed, bench["run_seconds"])
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{m}={values[m][-1]:.4g}" for m in bounds), file=sys.stderr)
        rows = {}
        for m, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            spread = (q3 - q1) / median if median else float("inf")
            rows[m] = {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4),
                       "bound": bounds[m], "values": vs}
            if spread > 0.1:
                record["not_within_a_tenth"].append(f"{name}/{m}")
        record["workloads"][name] = rows

    text = json.dumps(record, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
