#!/usr/bin/env python3
"""Counter self-check: the traced run's work counters must repeat exactly.

Runs the traced benchmark twice at one seed and once at a second seed for
each workload given. The two runs at one seed must report identical work
counters; the second seed must change the inputs (some counter moves on
the workloads that have image inputs) but not the workload's shape (the
same set of counters is non-zero).

    python3 perfbench/counters.py or_stream paper_cold cache_churn

Run from the repository root. Exits non-zero when a counter differs.
"""

import json
import subprocess
import sys

COUNTERS = [
    "fem.krylov_iterations",
    "sparse.spmv_calls",
    "sparse.precond_calls",
    "segment.knn_leaf_visits",
    "segment.reclassified_ratio",
    "surface.iterations",
]


def traced(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "1",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not res["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed (exit {out.returncode})")
    return {c: res["metrics"][c]["value"] for c in COUNTERS}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ok = True
    for workload in sys.argv[1:] or [w["name"] for w in bench["workloads"]]:
        a, b, c = traced(bench, workload, 1), traced(bench, workload, 1), traced(bench, workload, 2)
        for k in COUNTERS:
            same = a[k] == b[k]
            shape = (a[k] == 0) == (c[k] == 0)
            ok &= same and shape
            print(f"{workload:<12} {k:<28} seed1 {a[k]:>14g} {b[k]:>14g}  seed2 {c[k]:>14g}  "
                  f"{'repeats' if same else 'DIFFERS'}{'' if shape else ', shape changed'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
