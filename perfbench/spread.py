#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median; the bound
of each end-to-end metric in BENCHMARK.json applies to it.

    python3 perfbench/spread.py --workload or_stream --runs 10
    python3 perfbench/spread.py --workload paper_cold --runs 5 --first-seed 100

Run from the repository root. Every run uses the command in
BENCHMARK.json, so the first one also builds the benchmark.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        t = time.time()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: exit {out.returncode}, no result\n{out.stderr[-2000:]}")
            ok = False
            continue
        ok &= out.returncode == 0 and res["correct"]
        print(f"seed {seed}: exit {out.returncode} correct {res['correct']} "
              f"attempted {res['attempted']} failed {res['failed']} wall {wall:.1f} s")
        for m in metrics:
            v = res["metrics"].get(m["name"], {}).get("value")
            if v is None:
                print(f"  missing metric {m['name']}")
                ok = False
            else:
                values[m["name"]].append(v)

    print(f"\n{'metric':<28} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for m in metrics:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = m.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{m['name']:<28} {med:>14.6g} {spread:>8.4f} {bound if bound else '':>6}  "
              f"{' '.join(f'{x:.4g}' for x in v)}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
