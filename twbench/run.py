#!/usr/bin/env python3
"""Build and run the twbench benchmark.

One run (from the repository root):

    python3 twbench/run.py --workload phold-now --seed 1 --seconds 10 --trace 0

builds the twbench program into $CARGO_TARGET_DIR (default .bench_build) against the
simulator libraries under src/, runs one workload and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
ledger with --trace 1. It exits 1 when an output check fails, and with
another non-zero code (printing no result) when the build or the run breaks.

Steadiness mode runs every workload with seeds 1..runs and prints, per
workload and end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the bound declared in BENCHMARK.json:

    python3 twbench/run.py --steadiness [--runs 10] [--seconds 20]
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["phold-now", "raid-paper", "phold-threads", "phold-mesh-dyma"]
RUN_DEADLINE_S = 170.0  # one run's whole budget, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def local_env():
    """The environment with TMPDIR inside the build tree, so that the
    compiler's and twbench's scratch files stay inside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds twbench; returns the binary path. Both steps
    are no-ops (well under a second) once the tree is built."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    env = local_env()
    if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "twbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        raise RuntimeError("build failed")
    binary = os.path.join(out, "twbench")
    if not os.access(binary, os.X_OK):
        raise RuntimeError("build produced no twbench binary")
    return binary


def run_twbench(binary, args):
    """Runs twbench in its own process group; returns (code, stdout)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True, env=local_env())
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("twbench overran its %.0f s budget" % RUN_DEADLINE_S)
    finally:
        # The distributed engine forks shard workers; none may outlive a run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def one_run(args):
    binary = build()
    code, out = run_twbench(binary, args)
    lines = [l for l in out.splitlines() if l.strip()]
    if code not in (0, 1) or not lines:
        raise RuntimeError("twbench exited %d without a result" % code)
    json.loads(lines[-1])  # twbench's result line must parse
    print("\n".join(lines), flush=True)
    return code


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    binary = build()
    worst = 0.0
    for w in WORKLOADS:
        values = {}
        shares = set()
        start = time.time()
        for i in range(args.runs):
            run_args = argparse.Namespace(workload=w, seed=1 + i,
                                          seconds=seconds, trace=0, inject=None)
            code, out = run_twbench(binary, run_args)
            if code != 0:
                raise RuntimeError("%s seed %d failed (exit %d)"
                                   % (w, run_args.seed, code))
            result = json.loads(out.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s: %d runs in %.0f s, failed share %s"
              % (w, args.runs, time.time() - start, sorted(shares)))
        print("  %-20s %14s %14s %14s %8s %7s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, float("nan"))
            worst = max(worst, spread / bound)
            print("  %-20s %14.6g %14.6g %14.6g %8.4f %7.3f%s" %
                  (name, q1, med, q3, spread, bound,
                   "" if spread <= bound / 3 else "  <-- above bound/3"))
        sys.stdout.flush()
    print("largest spread / bound: %.3f" % worst)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inject", choices=["digest", "count"],
                   help="corrupt each Time Warp result before it is checked")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        if not args.workload:
            p.error("--workload is required")
        if args.seconds is None:
            args.seconds = 10
        return one_run(args)
    except (RuntimeError, OSError, ValueError) as e:
        log("run.py: %s" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
