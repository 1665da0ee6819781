#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two sets against the bounds.

    python3 perfbench/compare.py collect --out A.json [--seeds 10] [--first-seed 1]
                                         [--workloads serve-sparse,churn] [--trace 0]
    python3 perfbench/compare.py diff A.json B.json

`collect` runs perfbench/run.py once per workload and seed (from the
repository root) and writes every result with its run header. It prints, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

`diff` judges B against A for every end-to-end metric on every workload:
  worse      B's median is worse than A's by more than the bound;
  better     B's median is better by more than both sets' own spreads;
  unchanged  neither, with both spreads within the bound;
  unresolved a spread exceeds the bound and the runs of the two sets overlap.
It exits 1 if any metric is worse, and reports the share of failed
operations of each set, which must match.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(Q3 - Q1) / median, with Python's default quartile method."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def collect(args):
    s = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    runs = []
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = s["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(s["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                sys.exit("run failed: %s seed %d" % (w, seed))
            result = json.loads(lines[-1])
            header = json.loads(lines[-2])["header"] if len(lines) > 1 else {}
            runs.append({"workload": w, "seed": seed, "header": header, "result": result})
            print("%s seed %d: correct=%s attempted=%d failed=%d" % (
                w, seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    with open(args.out, "w") as f:
        json.dump(runs, f, indent=1)
    summarize(runs, s, args.trace)


def by_metric(runs, workload):
    out = {}
    for r in runs:
        if r["workload"] == workload:
            for name, m in r["result"]["metrics"].items():
                out.setdefault(name, []).append(m["value"])
    return out


def summarize(runs, s, trace):
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    for w in sorted({r["workload"] for r in runs}):
        print("== %s" % w)
        for name, vals in by_metric(runs, w).items():
            b = bounds.get(name)
            sp = spread(vals)
            flag = "" if trace or b is None else ("ok" if sp < b / 3 else "WIDE")
            print("  %-32s median %-12.6g spread %6.2f%%  bound %s %s" % (
                name, statistics.median(vals), 100 * sp,
                "-" if b is None else "%.0f%%" % (100 * b), flag))


def fail_share(runs, workload):
    att = sum(r["result"]["attempted"] for r in runs if r["workload"] == workload)
    fail = sum(r["result"]["failed"] for r in runs if r["workload"] == workload)
    return fail / att if att else 0.0


def diff(args):
    s = spec()
    with open(args.a) as f:
        a_runs = json.load(f)
    with open(args.b) as f:
        b_runs = json.load(f)
    any_worse = False
    for w in [x["name"] for x in s["workloads"]]:
        a, b = by_metric(a_runs, w), by_metric(b_runs, w)
        if not a or not b:
            continue
        print("== %s  (failed share A %.6f, B %.6f)" % (w, fail_share(a_runs, w), fail_share(b_runs, w)))
        for m in s["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            if name not in a or name not in b:
                print("  %-16s missing" % name)
                continue
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            gain = (ma - mb) / ma if lower else (mb - ma) / ma  # > 0 means B is better
            sa, sb = spread(a[name]), spread(b[name])
            sep_better = (max(b[name]) < min(a[name])) if lower else (min(b[name]) > max(a[name]))
            sep_worse = (min(b[name]) > max(a[name])) if lower else (max(b[name]) < min(a[name]))
            if -gain > bound and (max(sa, sb) <= bound or sep_worse):
                verdict = "worse"
                any_worse = True
            elif max(sa, sb) > bound and not (sep_better or sep_worse):
                verdict = "unresolved"
            elif gain > max(sa, sb):
                verdict = "better"
            else:
                verdict = "unchanged"
            print("  %-16s A %-12.6g B %-12.6g change %+7.2f%%  spreads %5.2f%%/%5.2f%%  bound %3.0f%%  %s" % (
                name, ma, mb, 100 * gain, 100 * sa, 100 * sb, 100 * bound, verdict))
    return 1 if any_worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", default="")
    c.add_argument("--trace", type=int, default=0)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())
