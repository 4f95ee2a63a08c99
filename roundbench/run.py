#!/usr/bin/env python3
"""Round-ledger benchmark: build, run one workload, print one result line.

    python3 roundbench/run.py --workload loop-narrow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
roundbench/ (CMake, RelWithDebInfo) from the checkout's own sources into
$CARGO_TARGET_DIR/roundbench, or .bench_build/roundbench when that is unset;
later runs only check the build is current. The run's report goes to stdout,
and its last line is one JSON object with the keys correct, attempted, failed
and metrics: every end-to-end metric of BENCHMARK.json with --trace 0, every
per-layer metric with --trace 1. A traced run also writes a Chrome trace to
<build>/traces/<workload>.trace.json.

--record FILE appends {"workload", "seed", "trace", "result"} to a JSONL result
set that compare.py reads. Exits 0 only when the run finished and every output
check held.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "roundbench")
WORKLOADS = ("loop-narrow", "serve-live", "ope-replay")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "roundbench")


def build(out_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", out_dir, "--target", "roundbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                # Build chatter goes to stderr: stdout ends with the result.
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {cmd[:2]} failed: {e}")
                return None
            if done.returncode != 0:
                log(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
                return None
    binary = os.path.join(out_dir, "roundbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Problems with the result line's shape, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(expected):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--record", help="append the result to this JSONL file")
    p.add_argument("--break", dest="break_check", default="",
                   help="deliberately break one output check (self-test)")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        log("cannot build the benchmark (are the harvest sources present?)")
        return 1
    started = time.monotonic()  # a first run may spend minutes building

    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}.trace.json")]
    if args.break_check:
        cmd += ["--break", args.break_check]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(10, RUN_TIMEOUT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("the run exceeded its time limit and was stopped")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result line (driver exited {done.returncode})")
        return 1
    problems = validate(result, args.trace)
    if problems:
        for problem in problems:
            log(f"bad result line: {problem}")
        return 1
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
