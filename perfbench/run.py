#!/usr/bin/env python3
"""Builds and runs the gpujoin benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-kernels --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR, or .bench_build when unset; later runs
only re-check the build. The perfbench binary measures, checks every output,
and prints its log; this script checks the printed metric names and units
against BENCHMARK.json and prints the result object as the last line of
standard output. The exit code is non-zero when the build fails, an output
check fails, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout(seconds):
    """Host seconds a run may take: the measurement window plus the passes
    that may start just before it closes (every workload's pass is shorter
    than a third of the window at its declared length), the output checks
    and the process start."""
    return 3 * seconds + 60


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j2", "--target", target])
    # Compiler temporaries stay inside the build tree, not in /tmp.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the benchmark log.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, target)


def clean_env():
    """The environment minus the program's own GPUJOIN_* knobs, which would
    change what runs (fault injection, backends, exporters)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GPUJOIN_")}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_metrics(result, trace):
    """Names and units printed must match BENCHMARK.json exactly."""
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append("missing metric %s" % name)
        elif name not in want:
            problems.append("metric %s is not in BENCHMARK.json" % name)
        elif want[name] != got[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, got[name], want[name]))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-kernels", "service-openloop", "cpux-ops"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark timed out after %g s\n" % timeout)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write("run.py: no result line (exit code %d)\n" % proc.returncode)
        return proc.returncode or 1
    problems = check_metrics(result, args.trace)
    for p in problems:
        sys.stderr.write("run.py: %s\n" % p)
    if problems:
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
