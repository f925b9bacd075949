#!/usr/bin/env python3
"""Compare two sets of dauct_bench records, paired run by run.

    python3 dauct_bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a record written by `dauct_bench --json=PATH` (or
`run.py --json PATH`). A is the baseline (the parent commit), B the change.
Records pair up in the order given per workload: pair i is the i-th A run
and the i-th B run of that workload, so alternate which side runs first.

For every (workload, end-to-end metric) the table shows each side's median
and quartiles, the share of pairs B won (ties count for neither), and a
verdict against the metric's bound in BENCHMARK.json:

  unresolved  A's own spread (q3 - q1 as a share of its median) is wider
              than the bound, and not every B run beats every A run
  regressed   B's median is worse than A's by more than the bound
  gain        B won at least 9/10 of the pairs and the medians differ by
              more than A's q3 - q1
  ok          none of the above

--layers adds the per-layer metrics (medians and pairs won; they have no
bound). Exit status 1 if any end-to-end metric regressed.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            rec = json.load(f)
        runs.setdefault(rec["workload"], []).append(rec["result"]["metrics"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def judge(a_runs, b_runs, better, bound):
    """Verdict, pairs-won share and quartiles of one metric.

    a_runs, b_runs: the metric's value per run, None where the run could not
    report it; pair i is (a_runs[i], b_runs[i]).
    """
    sign = 1 if better == "higher" else -1
    a = [x for x in a_runs if x is not None]
    b = [y for y in b_runs if y is not None]
    qa, qb = quartiles(a), quartiles(b)
    pairs = [(x, y) for x, y in zip(a_runs, b_runs) if x is not None and y is not None]
    won = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs) if pairs else 0.0
    if bound is None:
        return "-", won, qa, qb
    scale = abs(qa[1]) or 1.0
    spread = (qa[2] - qa[0]) / scale
    worse = sign * (qa[1] - qb[1]) / scale  # > 0: B is worse
    if spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved", won, qa, qb
    if worse > bound:
        return "regressed", won, qa, qb
    if won >= 0.9 and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "gain", won, qa, qb
    return "ok", won, qa, qb


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    p = argparse.ArgumentParser()
    p.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    p.add_argument("--layers", action="store_true")
    p.add_argument("a", nargs="+")
    args = p.parse_args(argv[:cut])
    with open(args.benchmark) as f:
        bench = json.load(f)
    runs_a, runs_b = load(args.a), load(argv[cut + 1:])

    metrics = [(m, m["bound"]) for m in bench["end_to_end"]]
    if args.layers:
        metrics += [(m, None) for m in bench["per_layer"]]
    regressed = False
    print("%-18s %-40s %-12s %-34s %-34s %5s" % (
        "workload", "metric", "verdict", "A median [q1, q3]", "B median [q1, q3]", "won"))
    for w in (w["name"] for w in bench["workloads"]):
        if w not in runs_a or w not in runs_b:
            continue
        for m, bound in metrics:
            a = [r.get(m["name"], {}).get("value") for r in runs_a[w]]
            b = [r.get(m["name"], {}).get("value") for r in runs_b[w]]
            if all(x is None for x in a) or all(y is None for y in b):
                continue
            verdict, won, qa, qb = judge(a, b, m["better"], bound)
            regressed |= verdict == "regressed"
            print("%-18s %-40s %-12s %-34s %-34s %4.0f%%" % (
                w, m["name"], verdict,
                "%.5g [%.5g, %.5g]" % (qa[1], qa[0], qa[2]),
                "%.5g [%.5g, %.5g]" % (qb[1], qb[0], qb[2]), 100 * won))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
