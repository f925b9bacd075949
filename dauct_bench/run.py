#!/usr/bin/env python3
"""Build dauct_bench from source and run one workload.

    python3 dauct_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                               [--json PATH]

Run from the repository root. The first call configures and builds the
library and the benchmark binary into .bench_build/ (about a minute with 4
jobs); later calls only re-check the build. Build output goes to stderr, so
the binary's stdout - one `name value unit` line per metric and the result
object as the last line - is this script's stdout. Traced runs write their
Chrome trace-event spans to .bench_build/traces/. Exits non-zero, printing
no result, when the library sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dauct_bench")
# Every run ends within three minutes; dauct_bench itself stops measuring
# well before this.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no dauct library sources at src/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "dauct_bench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also write the record compare.py reads")
    args = p.parse_args()

    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace", "--trace-json=%s" % os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.json:
        cmd.append("--json=" + args.json)
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:  # the child is killed and reaped
        sys.exit("run.py: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(rc)


if __name__ == "__main__":
    main()
