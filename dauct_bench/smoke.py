#!/usr/bin/env python3
"""Smoke test of dauct_bench (registered as the CTest dauct_bench_smoke).

    python3 smoke.py PATH/TO/dauct_bench PATH/TO/BENCHMARK.json

Runs every workload of BENCHMARK.json with --quick (3 auctions, or one
3-instance stream), untraced and traced, and checks that each run passed
the correctness gate - on lossy_stream that includes instance 0 against its
standalone twin - and printed exactly the metric names BENCHMARK.json lists,
both as `name value unit` lines and in the result object. Also checks that
traced runs write valid trace-event JSON and that an unknown workload is
refused. Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys


def fail(msg):
    sys.exit("dauct_bench_smoke: FAIL: " + msg)


def run(binary, args):
    p = subprocess.run([binary] + args, capture_output=True, text=True, timeout=170)
    if p.returncode != 0:
        fail("%s exited %d\n%s" % (" ".join(args), p.returncode, p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        bench = json.load(f)
    trace_path = os.path.join(os.path.dirname(os.path.abspath(binary)), "smoke_trace.json")
    for w in (w["name"] for w in bench["workloads"]):
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            args = ["--workload=" + w, "--seed=7", "--quick"]
            if traced:
                args += ["--trace", "--trace-json=" + trace_path]
            lines, result = run(binary, args)
            what = "%s%s" % (w, " --trace" if traced else "")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail("%s: gate did not pass: %s" % (what, result))
            expected = [m["name"] for m in bench[section]]
            printed = [line.split()[0] for line in lines]
            if printed != expected or list(result["metrics"]) != expected:
                fail("%s: metric names differ from BENCHMARK.json %s:\n%s" % (
                    what, section, sorted(set(printed) ^ set(expected))))
            if traced:
                with open(trace_path) as f:
                    if not json.load(f)["traceEvents"]:
                        fail("%s: empty trace" % what)
            print("ok  %s" % what)
    if subprocess.run([binary, "--workload=nope", "--seed=1"],
                      capture_output=True).returncode == 0:
        fail("an unknown workload was accepted")
    print("dauct_bench_smoke: all workloads pass")


if __name__ == "__main__":
    main()
