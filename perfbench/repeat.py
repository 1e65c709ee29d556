#!/usr/bin/env python3
"""Repeats the Liquid benchmark and reports the spread of every metric.

    python3 perfbench/repeat.py [--runs 10] [--workloads ingest,nearline,rewind]
                                [--seconds S] [--seed-base 100] [--traced]

Run from the root of a checkout. Each repetition runs every workload once,
alternating the order (forward on even repetitions, reversed on odd ones) and
using seed <seed-base + repetition>. Per workload and end-to-end metric it
prints the median, quartiles, min and max, and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json, and flags a spread over the
bound. It also checks that every run passed its output checks and that the
share of failed operations is the same in every run, and exits non-zero when
any of these checks fails. Per-layer metrics get their median and spread
too. With --traced every repetition adds a traced run per
workload: the per-layer figures then come from the traced runs, and the
report adds the tracing overhead, the change of each end-to-end median
between traced and untraced runs.
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def raw_run(binary, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    return run.run_binary(args)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    spec = run.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    binary = run.build()

    runs = {w: {"untraced": [], "traced": []} for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            for mode in (("untraced", "traced") if args.traced else ("untraced",)):
                r = raw_run(binary, w, args.seed_base + i, seconds, mode == "traced")
                runs[w][mode].append(r)
                print("run %2d %-9s %-8s correct=%s attempted=%d failed=%d rounds=%d" % (
                    i, w, mode, r["correct"], r["attempted"], r["failed"], r["rounds"]),
                    file=sys.stderr)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = []
    for w in workloads:
        untraced = runs[w]["untraced"]
        every = untraced + runs[w]["traced"]
        print("\n== %s: %d runs of %s s" % (w, len(untraced), seconds))
        shares = sorted({"%d/%d" % (r["failed"], r["attempted"]) for r in every})
        fail_shares = {r["failed"] / r["attempted"] for r in every}
        all_correct = all(r["correct"] for r in every)
        print("  correct in every run: %s" % all_correct)
        print("  failed share identical in every run: %s (%s)" % (
            len(fail_shares) == 1, ", ".join(shares[:4]) + (" ..." if len(shares) > 4 else "")))
        if not all_correct:
            problems.append("%s: incorrect output" % w)
        if len(fail_shares) != 1:
            problems.append("%s: failed share differs between runs" % w)
        print("  %-20s %6s %12s %12s %12s %12s %12s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for name, m in bounds.items():
            values = [r["end_to_end"][name]["value"] for r in untraced]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER BOUND"
                problems.append("%s.%s: spread over bound" % (w, name))
            print("  %-20s %6s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %5.0f%%%s" % (
                name, m["unit"], med, q1, q3, min(values), max(values),
                100 * spread, 100 * m["bound"], flag))
        traced = runs[w]["traced"]
        if traced:
            print("  tracing overhead (traced median vs untraced median):")
            for name, m in bounds.items():
                t = statistics.median(r["end_to_end"][name]["value"] for r in traced)
                u = statistics.median(r["end_to_end"][name]["value"] for r in untraced)
                print("    %-20s %12.6g -> %12.6g %s  (%+.1f%%)" % (
                    name, u, t, m["unit"], 100 * (t - u) / u if u else 0))
        # Untraced runs report every per-layer metric but the trace's own.
        source = traced or untraced
        print("  per-layer medians and spreads (%s runs, not gated):" % (
            "traced" if traced else "untraced"))
        for m in spec["per_layer"]:
            values = [r["per_layer"][m["name"]]["value"] for r in source
                      if m["name"] in r["per_layer"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            print("    %-34s %14.6g %-6s %7.1f%%" % (
                m["name"], med, m["unit"], 100 * (q3 - q1) / med if med else 0))

    if problems:
        print("\nFAILED: " + "; ".join(problems))
        sys.exit(1)


if __name__ == "__main__":
    main()
