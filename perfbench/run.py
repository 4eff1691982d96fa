#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

Run from the repository root:

  python3 perfbench/run.py --workload mail_day --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --repeat 10 --workload mail_day --seconds 30
  python3 perfbench/run.py --self-test

A single run builds the benchmark (optimised, into $CARGO_TARGET_DIR or
.bench_build), runs one workload and passes the program's output through;
the last line is the result object.  --repeat N runs the workload N times
with seeds seed..seed+N-1 and prints each metric's median, quartiles and
range (the steadiness check).  --self-test checks the benchmark's own logic.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "system.hpp")):
        raise RuntimeError("zmail sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench-cmake")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "zmail_perfbench")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def parse_result(stdout):
    """The result object on the last stdout line, or None if malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(build_dir(), "perfbench-out"),
           "--commit", git_commit()]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode, parse_result(proc.stdout)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as the checker takes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def repeat(binary, args):
    runs = []
    for i in range(args.repeat):
        code, result = run_once(binary, args.workload, args.seed + i,
                                args.seconds, args.trace, echo=False)
        if code != 0 or result is None or not result["correct"]:
            log(f"run {i} (seed {args.seed + i}) failed: exit {code}")
            return 1
        runs.append(result["metrics"])
        log(f"run {i} seed {args.seed + i}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    bounds = load_bounds() if args.trace == 0 else {}
    summary = {}
    steady = True
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'min':>14} {'max':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        ok = bound is None or rel <= bound / 3
        steady &= ok
        summary[name] = {"median": med, "q1": q1, "q3": q3, "min": min(values),
                         "max": max(values), "spread": rel, "bound": bound}
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(values):14.6g}"
              f" {max(values):14.6g} {rel:8.4f} {bound if bound else '-':>6}"
              f"{'' if ok else '  <-- above bound/3'}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "steady": steady, "metrics": summary}))
    return 0


def self_test(binary):
    code = subprocess.run([binary, "--self-test"]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_run"], cwd=HERE).returncode
    return 0 if code == 0 and tests == 0 else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.self_test:
        return self_test(binary)
    if args.repeat > 0:
        return repeat(binary, args)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, echo=True)
    if result is None:
        log("no result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
