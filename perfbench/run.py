#!/usr/bin/env python3
"""Builds and runs the Liquid benchmark from a source checkout.

    python3 perfbench/run.py --workload ingest|nearline|rewind|all \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. The benchmark binary is built with CMake
from perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build. Each run first replays the output checker's self-test, then
runs the workload, prints every metric with its unit and the operation
counts, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones; traced runs also write their spans to
.bench_out/spans-<workload>-<seed>.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "nearline", "rewind")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Liquid sources at src/; run from the root of a checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "liquid_perfbench", "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "liquid_perfbench")


def run_binary(args):
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("exit code %d: %s" % (proc.returncode, " ".join(args)))
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, spec, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        args += ["--spans", os.path.join(out_dir, "spans-%s-%d.tsv" % (workload, seed))]
    raw = run_binary(args)
    source = raw["per_layer"] if trace else raw["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail("%s did not report %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": source[m["name"]]["value"], "unit": m["unit"]}

    print("== %s (seed %d, %s s, %s, %d rounds)%s" % (
        workload, seed, seconds, "traced" if trace else "untraced", raw["rounds"],
        "" if raw["correct"] else " INCORRECT: " + raw["error"]))
    for kind, ops in sorted(raw["operations"].items()):
        print("  ops  %-22s attempted %9d  failed %7d" % (kind, ops["attempted"], ops["failed"]))
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    layer = raw["per_layer"]
    print("  latency p50 %.4g ms, p99 %.4g ms over %d samples (reported, not gated)" % (
        layer["latency.p50_ms"]["value"], layer["latency.p99_ms"]["value"],
        layer["latency.samples"]["value"]))
    if trace:
        print("  end-to-end figures of this traced run (compare with untraced"
              " runs to see the tracing overhead):")
        for m in spec["end_to_end"]:
            print("    %-32s %16.6g %s" % (m["name"], raw["end_to_end"][m["name"]]["value"],
                                         m["unit"]))
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    selftest = run_binary([binary, "--selftest"])
    if not selftest.get("selftest"):
        fail("output checker self-test failed: " + selftest.get("problems", ""))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(binary, spec, w, args.seed, seconds, bool(args.trace))
               for w in workloads]
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(final))


if __name__ == "__main__":
    main()
