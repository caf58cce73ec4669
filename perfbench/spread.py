#!/usr/bin/env python3
"""Runs the benchmark several times per workload, each run with another
seed, and reports each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), the figure the
bounds in BENCHMARK.json are set from.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--workload NAME ...]

Run from the repository root. Raw result lines are appended to
.perfbench/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    os.makedirs(".perfbench", exist_ok=True)

    for w in workloads:
        values = {}
        shares = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}")
            res = json.loads(lines[-1])
            with open(".perfbench/spread.jsonl", "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "result": res}) + "\n")
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: a check failed")
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        print(f"\n{w}: failed share {sorted(set(shares))}")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            flag = "" if b is None or spread < b / 3 else "  <-- above a third of its bound"
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {str(b):>6}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
