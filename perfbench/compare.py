#!/usr/bin/env python3
"""Collects and compares sets of benchmark runs.

  python3 perfbench/compare.py collect DIR [--runs 10] [--workloads a,b]
                                           [--trace 0|1]
      runs perfbench/run.py once per seed (1..runs) and workload, each for
      BENCHMARK.json's run_seconds, saving each run's stdout as
      DIR/<workload>.<seed>.json
  python3 perfbench/compare.py spread DIR
      per workload and metric: median, quartiles, and the quartile spread
      as a share of the median, against the metric's bound
  python3 perfbench/compare.py diff BASE NEW
      per workload and metric: both sets' medians and quartiles; flags every
      metric whose median moved by more than its bound in BENCHMARK.json

Quartiles are Python's statistics.quantiles(values, n=4). Both spread and
diff exit 1 on a set with a run that left no result or reported
correct=false; diff also on sets of unequal size or with a different share
of failed operations.
"""

import argparse
import fractions
import glob
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


def load(directory):
    """({workload: [result, ...]}, {workload: [problem, ...]}) from
    DIR/<workload>.<seed>.json files. A run that left no parsable result
    or reported correct=false is a problem, and not among the results."""
    runs, bad = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        name = os.path.basename(path)
        workload = name.rsplit(".", 2)[0]
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            res = json.loads(lines[-1])
            res["metrics"], res["attempted"], res["failed"]
        except (IndexError, ValueError, KeyError, TypeError):
            bad.setdefault(workload, []).append(name + ": no result")
            continue
        if res.get("correct") is not True:
            bad.setdefault(workload, []).append(name + ": correct=false")
            continue
        runs.setdefault(workload, []).append(res)
    return runs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_table(runs, names):
    """{metric: [values]} over runs, for metrics present in any run."""
    table = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if values:
            table[name] = values
    return table


def failure_share(runs):
    """The distinct shares of failed operations over runs."""
    return {fractions.Fraction(r["failed"], r["attempted"]) for r in runs}


def shares(runs):
    return ", ".join(str(f) for f in sorted(failure_share(runs))) or "-"


def report_bad(bad, label=""):
    """Prints each problem run; returns their number."""
    count = 0
    for workload in sorted(bad):
        for problem in bad[workload]:
            print("  BAD RUN %s%s" % (label, problem))
            count += 1
    return count


def cmd_collect(args):
    os.makedirs(args.dir, exist_ok=True)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec()["workloads"]])
    seconds = spec()["run_seconds"]
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.dir, "%s.%d.json" % (workload, seed))
            with open(path, "w") as f:
                f.write(out.stdout)
            last = out.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print("%s seed %d exit %d: %s" % (workload, seed, out.returncode,
                                              last[0][:160]))
    return 0


def cmd_spread(args):
    s = spec()
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    worst = 0.0
    runs_by_workload, bad = load(args.dir)
    flagged = report_bad(bad)
    for workload, runs in sorted(runs_by_workload.items()):
        print("%s: %d good runs, failed share %s" % (workload, len(runs),
                                                      shares(runs)))
        print("  %-34s %12s %12s %12s %8s %7s" % (
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, values in metric_table(runs, names).items():
            if len(values) != len(runs):
                print("  %-34s MISSING in %d run(s)" % (
                    name, len(runs) - len(values)))
                flagged += 1
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER" if spread > bound else (
                    "  >1/3" if spread > bound / 3 else "")
            print("  %-34s %12.5g %12.5g %12.5g %7.1f%% %7s%s" % (
                name, q1, q2, q3, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound), flag))
    print("worst spread/bound (setup_s excluded): %.2f" % worst)
    return 1 if flagged else 0


def cmd_diff(args):
    s = spec()
    (base, b_bad), (new, n_bad) = load(args.base), load(args.new)
    flagged = report_bad(b_bad, "base ") + report_bad(n_bad, "new ")
    for workload in sorted(set(base) | set(new) | set(b_bad) | set(n_bad)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        b_all = len(b_runs) + len(b_bad.get(workload, []))
        n_all = len(n_runs) + len(n_bad.get(workload, []))
        print("%s: %d vs %d runs; failed share %s vs %s" % (
            workload, b_all, n_all, shares(b_runs), shares(n_runs)))
        if b_all != n_all:
            print("  UNEQUAL SETS: %d vs %d runs" % (b_all, n_all))
            flagged += 1
        if failure_share(b_runs) != failure_share(n_runs):
            print("  FAILED SHARE DIFFERS")
            flagged += 1
        print("  %-18s %26s %26s %9s %7s" % (
            "metric", "base q1/med/q3", "new q1/med/q3", "change", "bound"))
        for m in s["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if len(bv) != len(b_runs) or len(nv) != len(n_runs) or not bv:
                print("  %-18s missing in some runs" % name)
                flagged += 1
                continue
            bq, nq = quartiles(bv), quartiles(nv)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            worse = change > m["bound"] if m["better"] == "lower" else \
                -change > m["bound"]
            better = -change > m["bound"] if m["better"] == "lower" else \
                change > m["bound"]
            flag = "  WORSE" if worse else ("  better" if better else "")
            flagged += worse
            print("  %-18s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %+8.1f%% %6.0f%%%s"
                  % (name, bq[0], bq[1], bq[2], nq[0], nq[1], nq[2],
                     100 * change, 100 * m["bound"], flag))
    print("%d problem(s): metrics worse than their bound, bad runs or "
          "mismatched sets" % flagged)
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--workloads")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
