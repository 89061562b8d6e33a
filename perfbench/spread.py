#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, judged against their bounds.

    python3 perfbench/spread.py --workload tcp_open [--runs 10] [--seed0 1]

Runs the benchmark --runs times on one workload, each with another seed,
and prints per metric the median, the quartiles and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)),
next to the metric's bound from BENCHMARK.json. A spread above a third
of its bound is flagged (setup_s is listed but exempt). The raw result
lines are appended to --log when given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--log", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable] + bench["command"][1:] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"{args.workload} seed={seed} rc={proc.returncode} "
                        f"{last}\n")
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        res = json.loads(last)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
            flush=True)

    worst = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
            worst = 1
        print(f"{name:22s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.4f}  bound {bound}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
