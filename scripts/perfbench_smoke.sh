#!/usr/bin/env bash
# Benchmark correctness smoke: a short run of every perfbench workload must
# report correct output and zero failed operations.
#
#   scripts/perfbench_smoke.sh [SECONDS]   (default 3 s per workload)
#
# perfbench/run.py exits 0 even when a workload's output check fails, so the
# verdict comes from its final JSON line ({"correct": ..., "failed": ...}).
# Builds into .bench_build/ like run.py. Works from any directory.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(python3 perfbench/run.py --workload all --seconds "${1:-3}" --trace 0)"
printf '%s\n' "${out}"
printf '%s\n' "${out}" | tail -n 1 | python3 -c '
import json, sys
final = json.loads(sys.stdin.read())
if final["correct"] is not True or final["failed"] != 0:
    sys.exit("perfbench smoke: correct=%r failed=%r" % (final["correct"], final["failed"]))
print("perfbench smoke: correct, 0 of %d operations failed" % final["attempted"])
'
