#!/usr/bin/env python3
"""Compare a fresh BENCH_dauct.json against the committed baseline.

Per-op deltas for every benchmark present in both files, plus new/dropped
entries, and the same for the named counters a benchmark reports (work per
op, such as `stage_cells`) — rendered as GitHub-flavoured markdown tables so
CI can append them to the job summary. Timings are warn-only by design: the
shared CI vCPU is far too noisy for a hard gate (see ROADMAP "Perf
baseline"); the table is for humans (and the committed baseline at the repo
root is the durable record). Counters that count deterministic work at a
fixed seed can be gated: `--gate-counter NAME` fails the comparison when any
benchmark's NAME counter rises above the baseline.

Usage:
  tools/bench_compare.py BASELINE.json FRESH.json [--threshold-pct 15]
                         [--gate-counter NAME ...]

Exit code: 0, or 1 when a file is missing/unparseable or a gated counter
rose.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    runs = {}
    for rec in doc.get("benchmarks", []):
        runs[rec["name"]] = rec
    return runs, doc.get("speedups", {})


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} µs"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold-pct", type=float, default=15.0,
                    help="flag timing |delta| above this (cosmetic only; never fails)")
    ap.add_argument("--gate-counter", action="append", default=[], metavar="NAME",
                    help="fail if this deterministic counter rises above the "
                         "baseline in any benchmark (repeatable)")
    args = ap.parse_args()

    try:
        base, base_speedups = load(args.baseline)
        fresh, fresh_speedups = load(args.fresh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot load inputs: {e}", file=sys.stderr)
        return 1

    common = [n for n in base if n in fresh]
    added = [n for n in fresh if n not in base]
    dropped = [n for n in base if n not in fresh]

    print("### Perf trajectory vs committed baseline")
    print()
    print(f"{len(common)} benchmarks compared "
          f"({len(added)} new, {len(dropped)} dropped). "
          f"Timing deltas beyond ±{args.threshold_pct:.0f}% are flagged; "
          "timings are warn-only (noisy shared vCPU — trust ratios, "
          "re-measure locally before acting)"
          + (f"; a rise in {', '.join(args.gate_counter)} fails."
             if args.gate_counter else "."))
    print()
    print("| benchmark | baseline | fresh | delta |")
    print("|---|---:|---:|---:|")
    flagged = 0
    for name in common:
        b, f = base[name]["ns_per_op"], fresh[name]["ns_per_op"]
        if b <= 0:
            continue
        pct = (f - b) / b * 100.0
        mark = ""
        if abs(pct) > args.threshold_pct:
            flagged += 1
            mark = " ⚠️" if pct > 0 else " 🚀"
        print(f"| `{name}` | {fmt_ns(b)} | {fmt_ns(f)} | {pct:+.1f}%{mark} |")
    for name in added:
        print(f"| `{name}` | — | {fmt_ns(fresh[name]['ns_per_op'])} | new |")
    for name in dropped:
        print(f"| `{name}` | {fmt_ns(base[name]['ns_per_op'])} | — | dropped |")

    if base_speedups or fresh_speedups:
        print()
        print("| ref→opt speedup | baseline | fresh |")
        print("|---|---:|---:|")
        for key in sorted(set(base_speedups) | set(fresh_speedups)):
            b = base_speedups.get(key)
            f = fresh_speedups.get(key)
            print(f"| `{key}` | {f'{b:.2f}×' if b else '—'} "
                  f"| {f'{f:.2f}×' if f else '—'} |")

    counter_rows = []
    for name in common:
        bc = base[name].get("counters", {})
        fc = fresh[name].get("counters", {})
        for key in sorted(set(bc) | set(fc)):
            counter_rows.append((name, key, bc.get(key), fc.get(key)))
    risen = []
    if counter_rows:
        print()
        print("| benchmark | counter | baseline | fresh | delta |")
        print("|---|---|---:|---:|---:|")
        for name, key, b, f in counter_rows:
            if b is None or f is None:
                delta = "new" if b is None else "dropped"
            else:
                delta = f"{(f - b) / b * 100.0:+.1f}%" if b else f"{f - b:+g}"
                if key in args.gate_counter and f > b:
                    risen.append(f"{name} {key}: {b:g} -> {f:g}")
                    delta += " ❌"
            print(f"| `{name}` | `{key}` | {'—' if b is None else f'{b:g}'} "
                  f"| {'—' if f is None else f'{f:g}'} | {delta} |")

    print()
    if flagged:
        print(f"_{flagged} benchmark(s) beyond the ±{args.threshold_pct:.0f}% "
              "noise band._")
    if risen:
        print(f"**Gated counter(s) rose above the baseline:** {'; '.join(risen)}")
        for line in risen:
            print(f"bench_compare: gated counter rose: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
