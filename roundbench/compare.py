#!/usr/bin/env python3
"""Result sets of the round-ledger benchmark: record, check spread, compare.

A result set is a JSONL file, one {"workload", "seed", "trace", "result"}
object per run, as run.py --record writes it.

    python3 roundbench/compare.py sweep --out base.jsonl [--seeds 1-10]
        [--workloads loop-narrow,ope-replay]
    python3 roundbench/compare.py spread base.jsonl
    python3 roundbench/compare.py diff base.jsonl change.jsonl

sweep runs run.py untraced, at BENCHMARK.json's run_seconds, once per
(workload, seed). spread prints, per workload and end-to-end metric, the
median, the quartiles and the spread (quartile distance over median) against
the metric's bound, and exits 1 when a spread reaches a third of its bound.
diff prints one row per workload x end-to-end metric with both sides'
medians and quartiles and a verdict under the bounds in BENCHMARK.json:

    better        the change's median is better by more than the parent's
                  quartile distance (or every change run beats every parent
                  run when the spread is too wide to tell)
    worse         the change's median is worse by more than the bound
    within bound  neither
    unresolved    a side's spread exceeds the bound and the runs overlap

Both spread and diff also exit 1 when the runs themselves are not sound: a
run whose output checks failed (correct false), a change whose share of
failed operations (failed / attempted) is above the parent's, or a workload
or metric that only one side has. So a CI step can gate on diff alone.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Runs:
    """The untraced runs of one workload in a result set."""

    def __init__(self):
        self.metrics = {}  # name -> [value per run]
        self.runs = 0
        self.incorrect = 0
        self.attempted = 0
        self.failed = 0

    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def load_set(path):
    """{workload: Runs} of the untraced runs in a result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            if row["trace"] != 0:
                continue
            result = row["result"]
            w = runs.setdefault(row["workload"], Runs())
            w.runs += 1
            w.incorrect += result["correct"] is not True
            w.attempted += result["attempted"]
            w.failed += result["failed"]
            for name, m in result["metrics"].items():
                w.metrics.setdefault(name, []).append(float(m["value"]))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, bound, better):
    """better / worse / within bound / unresolved for one metric."""
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - bmed)  # > 0: change is better
    if spread(base) > bound or spread(change) > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "better"
        return "unresolved"
    if gain < -bound * abs(bmed):
        return "worse"
    if gain > (b3 - b1):
        return "better"
    return "within bound"


def unsound(label, runs):
    """Problems with one side's runs of one workload, as strings."""
    if runs.incorrect:
        return [f"{label}: {runs.incorrect} of {runs.runs} runs failed "
                "their output checks"]
    return []


def soundness(spec, base, change):
    """Problems that make a diff of base and change invalid, as strings."""
    problems = []
    names = [m["name"] for m in spec["end_to_end"]]
    for workload in sorted(set(base) | set(change)):
        b, c = base.get(workload), change.get(workload)
        if b is None or c is None:
            side = "parent" if b is None else "change"
            problems.append(f"{workload}: no runs in the {side} set")
            continue
        problems += unsound(f"{workload} parent", b)
        problems += unsound(f"{workload} change", c)
        if c.failed_frac() > b.failed_frac():
            problems.append(
                f"{workload}: failed/attempted {c.failed_frac():.3g} in the "
                f"change > {b.failed_frac():.3g} in the parent")
        for name in names:
            if bool(b.metrics.get(name)) != bool(c.metrics.get(name)):
                side = "parent" if b.metrics.get(name) else "change"
                problems.append(f"{workload}: {name} only in the {side} set")
    return problems


def cmd_sweep(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    failures = 0
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0",
                   "--record", args.out]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            status = "ok" if done.returncode == 0 else f"exit {done.returncode}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            failures += done.returncode != 0
    return 1 if failures else 0


def cmd_spread(args):
    spec = load_spec()
    runs = load_set(args.results)
    print(f"{'workload':12} {'metric':15} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  ok")
    bad = 0
    for workload, w in runs.items():
        for m in spec["end_to_end"]:
            values = w.metrics.get(m["name"], [])
            if not values:
                print(f"{workload:12} {m['name']:15}   missing")
                bad += 1
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            ok = s < m["bound"] / 3
            bad += not ok
            print(f"{workload:12} {m['name']:15} {len(values):3d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {s:7.4f} {m['bound']:6.3f}  "
                  f"{'yes' if ok else 'NO'}")
    problems = [p for workload, w in runs.items()
                for p in unsound(workload, w)]
    for problem in problems:
        print(f"unsound: {problem}")
    return 1 if bad or problems else 0


def cmd_diff(args):
    spec = load_spec()
    base, change = load_set(args.base), load_set(args.change)
    print(f"{'workload':12} {'metric':15} {'parent [q1, q3]':>32} "
          f"{'change [q1, q3]':>32} {'delta':>8} {'bound':>6}  verdict")
    worse = 0
    for workload in base:
        for m in spec["end_to_end"]:
            b = base[workload].metrics.get(m["name"])
            c = (change[workload].metrics.get(m["name"])
                 if workload in change else None)
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            v = verdict(b, c, m["bound"], m["better"])
            worse += v == "worse"
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{workload:12} {m['name']:15} {fmt.format(*bq):>32} "
                  f"{fmt.format(*cq):>32} {delta:+8.2%} {m['bound']:6.3f}  {v}")
    problems = soundness(spec, base, change)
    for problem in problems:
        print(f"unsound: {problem}")
    return 1 if worse or problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep", help="run every workload over a seed range")
    s.add_argument("--out", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--workloads", default="")
    s.set_defaults(fn=cmd_sweep)
    s = sub.add_parser("spread", help="per-metric spread of one result set")
    s.add_argument("results")
    s.set_defaults(fn=cmd_spread)
    s = sub.add_parser("diff", help="verdict table of change vs parent")
    s.add_argument("base")
    s.add_argument("change")
    s.set_defaults(fn=cmd_diff)
    args = p.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
