#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload cli-sparse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of an sssj checkout. It configures and builds
perfbench/ (which builds the library from the checkout's sources) under
$CARGO_TARGET_DIR, default .bench_build, runs the benchmark binary in a
per-run directory that is removed afterwards, and prints the binary's
report. The last stdout line is the result object; metric units come
from BENCHMARK.json, and the metric set must match its end_to_end list
(--trace 0) or per_layer list (--trace 1).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A binary run that takes longer than this is treated as hung.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures once, then builds `targets`; output goes to stderr."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(step))
    return out


def run_binary(cmd):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at the checkout root")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("not an sssj checkout: CMakeLists.txt or src/ is missing")
    with open(spec_path) as f:
        spec = json.load(f)

    if args.self_test:
        out = build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    out = build(["perfbench"])

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    runs = os.path.join(build_dir(), "runs")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(runs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    try:
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", run_dir]
        if args.trace:
            cmd += ["--spans-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.tsv")]
        code, stdout = run_binary(cmd)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "")
        fail(f"the benchmark printed no result (exit {code})", code or 2)
    got = set(result["metrics"])
    if got != set(units):
        fail(f"metric set differs from BENCHMARK.json: missing "
             f"{sorted(set(units) - got)}, extra {sorted(got - set(units))}", 3)
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]} for name in units}
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
