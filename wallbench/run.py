#!/usr/bin/env python3
"""Wall-clock session benchmark of the smart-RPC library.

  python3 wallbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 wallbench/run.py [--seed N] [--seconds S]    # BENCHMARK.json's workloads, one table

Run from the repository root. Builds wallbench/ (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload in its own process, pinned to one fixed CPU, with the program's
stderr sent to a file in the build directory at the default log level.
Prints the run environment, every metric by name with its unit, and as the
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. Exits 1 when a build, run or output check
fails, 2 when the library sources are missing.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 170
# Shown beside the machine-readable line, not in BENCHMARK.json: the
# throughput, medians and tail read the shared host's drifting speed as much
# as the program (their run-to-run spread outgrows any bound the benchmark
# may set), and failed_ratio is 0 whenever the run is correct (failures
# travel in "failed").
EXTRA_END_TO_END = ["sessions_per_s", "session_p50_us", "session_tail_us", "call_p50_us",
                    "commit_p50_us", "failed_ratio"]


def fail(message, code=1):
    print(f"wallbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      f"-DCMAKE_BUILD_TYPE={SPEC['build_type']}"])
    steps.append(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    with open(out / "build.log", "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed, see {out / 'build.log'}")
    return out / "wallbench"


def pinned_cpus():
    """One CPU, the last this process may use: the same on every run of a
    machine, and away from CPU 0, where interrupts land. The spaces' worker
    threads take turns on it, so each hand-off between spaces is a context
    switch; spread over several CPUs, each hand-off waits for an idle CPU
    to wake, which on a shared virtual machine varies widely from run to
    run."""
    return sorted(os.sched_getaffinity(0))[-1:]


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(binary, args, trace):
    name = args.workload
    spec = SPEC["workloads"][name]
    out = build_dir()
    # One file of each kind per workload, overwritten by its next run.
    stderr_path = out / f"{name}-trace{trace}.stderr"
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--tail-pct", str(spec["tail_pct"]),
           "--trace-out", str(out / f"{name}.trace.json")]
    if args.nodes:
        cmd += ["--nodes", str(args.nodes)]
    # The program reads SRPC_LOG, SRPC_TRACE and SRPC_FLIGHT_DIR; none may
    # change what a run measures or where it writes.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SRPC_")}
    cpus = pinned_cpus()
    with open(stderr_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                  text=True, timeout=RUN_TIMEOUT_S,
                                  preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        except subprocess.TimeoutExpired:
            fail(f"{name} ran past {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = stderr_path.read_text(errors="replace").splitlines()[-5:]
        fail(f"{name} exited {proc.returncode} without a result:\n" + "\n".join(tail))
    with open(stderr_path, errors="replace") as err:
        log_lines = sum(1 for _ in err)
    sessions = result["info"]["sessions_committed"]
    result["metrics"]["obs.log_lines_per_1k_sessions"] = {
        "value": 1000.0 * log_lines / sessions if sessions else 0.0, "unit": "count"}
    result["env"] = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                     "build_type": SPEC["build_type"],
                     "cpus": ",".join(map(str, cpus)), "stderr": str(stderr_path)}
    return proc.returncode, result


def chosen_metrics(trace):
    return BENCH["per_layer" if trace else "end_to_end"]


def single(args):
    binary = build()
    code, result = run_workload(binary, args, args.trace)
    print(f"wallbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in result["env"].items()))
    for key, value in result["info"].items():
        print(f"info {key} {value}")
    names = [m["name"] for m in chosen_metrics(args.trace)]
    if not args.trace:
        names += EXTRA_END_TO_END
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            fail(f"{args.workload} did not report {name}")
        m = result["metrics"][name]
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
        if name not in EXTRA_END_TO_END:
            metrics[name] = m
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if code == 0 and result["correct"] else 1


def table(args):
    """BENCHMARK.json's workloads, each in its own process, end-to-end
    metrics only."""
    binary = build()
    names = [m["name"] for m in chosen_metrics(0)] + EXTRA_END_TO_END
    rows, status = [], 0
    for workload in [w["name"] for w in BENCH["workloads"]]:
        args.workload = workload
        code, result = run_workload(binary, args, 0)
        ok = code == 0 and result["correct"] and result["failed"] == 0
        status |= 0 if ok else 1
        rows.append((workload, "pass" if ok else "FAIL", result["metrics"]))
    env = result["env"]
    print(f"wallbench seed={args.seed} seconds={args.seconds} nproc={env['nproc']} "
          f"cpus={env['cpus']} build={env['build_type']} cpu={env['cpu_model']!r}")
    print(f"{'metric':26s}{'unit':>10s}" + "".join(f"{w:>16s}" for w, _, _ in rows))
    print(f"{'output checks':26s}{'':>10s}" + "".join(f"{c:>16s}" for _, c, _ in rows))
    for name in names:
        unit = rows[0][2][name]["unit"]
        print(f"{name:26s}{unit:>10s}" +
              "".join(f"{m[name]['value']:>16.6g}" for _, _, m in rows))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int,
                        help="tree size (default: the paper's 32,767)")
    args = parser.parse_args()
    sys.exit(single(args) if args.workload else table(args))


if __name__ == "__main__":
    main()
