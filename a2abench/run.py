#!/usr/bin/env python3
"""Build and run one a2abench workload.

    python3 a2abench/run.py --workload smp_transpose --seed 1 --seconds 15 --trace 0
    python3 a2abench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library and the benchmark into .bench_build/ (Release); later calls only
rebuild what changed. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result. Exits non-zero
without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sim_dane32", "smp_transpose", "net_transpose")
# A run measures for --seconds plus set-up and checks; anything slower than
# this is hung, not slow.
RUN_TIMEOUT_S = 170


def build(target):
    generated = any(os.path.exists(os.path.join(BUILD, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", target]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def run_workload(args):
    spans = os.path.join(BUILD, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(BUILD, "a2abench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", spans]
    # The benchmark removes the library's A2A_* knobs itself and prints
    # which ones it found.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the forked rank processes too.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("a2abench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        print("a2abench: no result line (exit code %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    problem = manifest_mismatch(result["metrics"], args.trace)
    if problem:
        # The line would not be the result BENCHMARK.json promises: print
        # the report for reading, but no result line.
        sys.stderr.write(out)
        print("a2abench: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


def manifest_mismatch(metrics, trace):
    """Why `metrics` is not exactly BENCHMARK.json's list for this mode, in
    the manifest's units; None when it is."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got == want:
        return None
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    return "result metrics differ from BENCHMARK.json: missing %s, extra %s, " \
        "unit differs for %s" % (missing, extra, units)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test:
        if not build("a2abench_test"):
            print("a2abench: build failed", file=sys.stderr)
            return 2
        return subprocess.call([os.path.join(BUILD, "a2abench_test")])
    if args.workload is None:
        ap.error("--workload is required")
    if not build("a2abench"):
        print("a2abench: build failed", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
