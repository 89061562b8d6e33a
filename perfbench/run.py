#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload tcp_open|batch_closed \
        --seed N --seconds S --trace 0|1 [--corrupt 1]

Run from the repository root. The first call configures and builds the
library and the driver under .bench_build/perfbench (later calls only
rebuild what changed); build logs go to stderr. Stdout is the driver's:
the host fingerprint, one line per metric and, as the last line, the JSON
result. The result is held against BENCHMARK.json: an untraced run must
report every end-to-end metric, a traced run reports every per-layer
metric, where a layer this workload does not run reads 0, and no metric
may be undeclared or carry another unit (else no result is printed). The
exit code is the driver's: 0 when every output passed its check,
non-zero otherwise, when the build fails or the result does not match
BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench_driver", "-j", jobs],
        stdout=sys.stderr, check=True)


def source_id():
    """Commit when the checkout is a git repository, else a digest of the
    program's sources, so every result names the code it measured."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def complete(result, trace):
    """Checks the driver's metrics against BENCHMARK.json and returns the
    result with the metrics in declaration order; per-layer metrics of
    layers the workload does not run are added as 0. Raises ValueError on
    a missing end-to-end metric, an undeclared metric or a wrong unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    for name, m in got.items():
        if units.get(name) != m["unit"]:
            raise ValueError(f"metric {name} [{m['unit']}] is not declared "
                             f"with that unit")
    metrics = {}
    for name, unit in units.items():
        if name in got:
            metrics[name] = got[name]
        elif trace:
            print(f"{name:34s} {0:16d} {unit:14s}  layer not run by this "
                  f"workload")
            metrics[name] = {"value": 0, "unit": unit}
        else:
            raise ValueError(f"end-to-end metric {name} missing")
    return dict(result, metrics=metrics)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["tcp_open", "batch_closed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt", type=int, choices=[0, 1], default=0,
                    help="flip one output bit to prove the check fails")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", str(args.corrupt), "--workdir", workdir,
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = complete(json.loads(lines[-1]), args.trace)
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: bad result line ({e}): {lines[-1]}",
              file=sys.stderr)
        return 4
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
