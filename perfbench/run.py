#!/usr/bin/env python3
"""odburg's end-to-end benchmark: builds the library, odburg-serve and the
benchmark binary from the sources of this checkout, then runs one workload.

  python3 perfbench/run.py --workload jit-warm --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --short     # every workload and check, < 1 min

The last line of stdout is the run's JSON result (see README.md). Build
output and diagnostics go to stderr. Everything the benchmark writes stays
under .bench_build/ at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "odburg-perfbench")
SERVE = os.path.join(BUILD, "odburg", "tools", "odburg-serve")
WORKLOADS = ["jit-warm", "grammar-churn", "serve-mixed"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns False when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "odburg-perfbench", "odburg-serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, short=False):
    """Runs one measurement; returns (exit code, stdout text)."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--serve", SERVE]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s.%d.jsonl" % (workload,
                                                                seed))]
    if short:
        cmd.append("--short")
    # Its own process group, so a timeout also stops the odburg-serve and
    # child processes it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def short_mode():
    """Every workload, untraced and traced, with small inputs."""
    ok = True
    start = time.monotonic()
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(workload, 1, 2, trace, short=True)
            lines = out.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                res = None
            good = code == 0 and res is not None and res["correct"]
            ok = ok and good
            print("%-14s trace=%d  %s  attempted=%s failed=%s metrics=%s" % (
                workload, trace, "ok" if good else "FAILED",
                res and res["attempted"], res and res["failed"],
                res and len(res["metrics"])))
    print("short mode: %s in %.1f s" % ("all correct" if ok else "FAILURES",
                                        time.monotonic() - start))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int,
                    help="run length; BENCHMARK.json's run_seconds is the "
                         "benchmark's own")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="run every workload and check briefly")
    args = ap.parse_args()
    if not args.short and (not args.workload or not args.seconds or
                           args.seconds <= 0):
        ap.error("--workload and a positive --seconds are required "
                 "(or --short)")
    if not build():
        return 1
    if args.short:
        return short_mode()
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
