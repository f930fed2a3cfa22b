#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each chosen workload,
then prints, per workload and metric, the median of the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound. A spread above a third of the bound is marked.

With --save FILE the run values are written as JSON; with --against FILE
the medians are also compared with those of an earlier saved set, and a
median that is worse than the earlier one by more than the bound is marked.
The exit code is 1 when anything is marked.

Run from the repository root:

    python3 e2ebench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                   [--save FILE] [--against FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()
    earlier = json.load(open(args.against)) if args.against else {}
    saved = {}

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    specs = bench["end_to_end"]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in specs}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: exit {out.returncode}, result {result}", file=sys.stderr)
                print(out.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        saved[w] = values
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<24} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>9} {'bound':>7} {'vs earlier':>10}")
        for m in specs:
            v = values[m["name"]]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m["bound"]
            flag = ""
            if spread > bound / 3:
                flag += "  spread > bound/3"
                ok = False
            change = ""
            before = earlier.get(w, {}).get(m["name"], [])
            if len(before) >= 4:
                old_med = statistics.median(before)
                worse = (med - old_med if m["better"] == "lower" else old_med - med) / abs(old_med)
                change = f"{100 * worse:+.2f}%"
                if worse > bound:
                    flag += "  worse than earlier by > bound"
                    ok = False
            print(f"  {m['name']:<24} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} {100 * spread:>8.2f}% {bound:>7} {change:>10}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
