#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Checks, with short runs:
  1. every workload, untraced and traced, prints a well-formed last line
     holding exactly the metrics BENCHMARK.json declares for that mode
     (end-to-end untraced, per-layer traced), each with its unit;
  2. a second seed, never used while the harness was written, gives
     each workload exactly the same metric set;
  3. a run whose output is deliberately corrupted (--corrupt 1) exits
     non-zero and reports correct: false, on every workload;
  4. in a directory holding only BENCHMARK.json and the benchmark's own
     files, the command fails without printing a result.
Exits 0 when all hold.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 90210)
SECONDS = 3

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, trace, corrupt=0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace),
           "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def well_formed(res):
    return (isinstance(res, dict)
            and set(res) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)
            and all(set(m) == {"value", "unit"}
                    and isinstance(m["value"], (int, float))
                    for m in res["metrics"].values()))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]

    metric_sets = {}
    for seed in SEEDS:
        for trace in (0, 1):
            for w in workloads:
                rc, res = run(ROOT, w, seed, trace)
                tag = f"{w} seed={seed} trace={trace}"
                check(rc == 0 and well_formed(res) and res["correct"],
                      f"{tag}: exit 0, well-formed, correct")
                if not well_formed(res):
                    continue
                names = set(res["metrics"])
                undeclared = {n for n, m in res["metrics"].items()
                              if declared[trace].get(n) != m["unit"]}
                check(not undeclared,
                      f"{tag}: metrics declared with their units "
                      f"{sorted(undeclared) or ''}")
                missing = set(declared[trace]) - names
                check(not missing, f"{tag}: every declared metric emitted "
                      f"{sorted(missing) or ''}")
                if trace == 0:
                    zero = sorted(n for n, m in res["metrics"].items()
                                  if m["value"] == 0)
                    check(not zero, f"{tag}: no end-to-end metric reads 0 "
                          f"{zero or ''}")
                metric_sets.setdefault((w, trace), []).append(names)
    for (w, trace), sets in metric_sets.items():
        check(len(sets) == len(SEEDS) and all(s == sets[0] for s in sets),
              f"{w} trace={trace}: same metric set on both seeds")

    for w in workloads:
        rc, res = run(ROOT, w, SEEDS[0], 0, corrupt=1)
        check(rc != 0 and res is not None and res.get("correct") is False,
              f"{w}: a corrupted output fails the run")

    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    rc, res = run(bare, workloads[0], SEEDS[0], 0)
    check(rc != 0 and res is None,
          "without the program's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
