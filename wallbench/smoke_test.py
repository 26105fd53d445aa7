#!/usr/bin/env python3
"""Smoke test of the wall-clock session benchmark.

  python3 wallbench/smoke_test.py

Run from the repository root. Runs every workload at a tiny size (a
511-node tree, one second) through run.py, untraced and traced,
and checks that the output checks pass, that no session failed, and that
every end-to-end and per-layer metric BENCHMARK.json names is printed with
its unit, both on the metric lines and in the final JSON line. Also checks
that spec.json maps every per-layer metric, and that run.py fails without
printing a result in a directory that holds only the benchmark's own files.
Exits 1 on the first failure.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
TINY = ["--seed", "7", "--seconds", "1", "--nodes", "511"]


def fail(message):
    print(f"smoke_test: FAIL: {message}")
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--trace", str(trace)] + TINY
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}")
    return lines


def check(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail(f"{workload}: metrics {sorted(result['metrics'])}")
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {m['name']} reported as {got}")
        if printed.get(m["name"], (None, None))[1] != m["unit"]:
            fail(f"{workload}: no metric line for {m['name']} in {m['unit']}")
    if not trace and printed.get("failed_ratio") != (0.0, "fraction"):
        fail(f"{workload}: failed_ratio line {printed.get('failed_ratio')}")
    print(f"smoke_test: {workload} trace={trace} ok ({result['attempted']} sessions)")


def check_spec():
    mapped = [row["metric"] for row in SPEC["per_layer_map"]]
    names = [m["name"] for m in BENCH["per_layer"]]
    if mapped != names:
        fail("spec.json per_layer_map and BENCHMARK.json per_layer differ")
    if not {w["name"] for w in BENCH["workloads"]} <= set(SPEC["workloads"]):
        fail("BENCHMARK.json names a workload spec.json lacks")


def check_bare_directory():
    """Only BENCHMARK.json and the benchmark's files: must fail, no result."""
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = build / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name)
    proc = subprocess.run(BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"]] + TINY,
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=170)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke_test: bare directory fails without a result ok")


def main():
    check_spec()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check(workload, trace)
    check_bare_directory()
    print("smoke_test: all ok")


if __name__ == "__main__":
    main()
