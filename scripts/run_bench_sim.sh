#!/usr/bin/env bash
# Run the simulator throughput benchmarks and write BENCH_sim.json at the
# repo root. This is the perf artifact for the simulation-engine hot path:
# items/sec and events/sec for the enforced-waits, monolithic, greedy, and
# quantum-scheduled simulators plus the supporting engine microbenchmarks
# (indexed scheduler, ring buffer, batched gain sampling) and the monolithic
# solver behind the sweep (one cell, one tau0 row).
#
# Every benchmark runs 5 repetitions. The JSON keeps each repetition plus
# google-benchmark's aggregates (mean, median, stddev, cv); the console
# shows the aggregates, then one line per benchmark with the median and
# quartiles of items/sec. Compare medians, not single runs: host clocks
# drift by tens of percent over minutes.
#
# Usage: scripts/run_bench_sim.sh [build-dir] [min-time]
#   build-dir  defaults to ./build (configured if missing)
#   min-time   defaults to 0.2 (seconds per benchmark, forwarded to
#              --benchmark_min_time)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
MIN_TIME="${2:-0.2}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${BUILD_DIR}" --target bench_micro -j"$(nproc)"

FILTER='BM_EnforcedSimulation|BM_MonolithicSimulation|BM_GreedySimulation'
FILTER+='|BM_QuantumSimulation|BM_IndexedSchedulerCycle|BM_RingBufferPushPop'
FILTER+='|BM_CensoredPoissonSampleN|BM_BernoulliSampleN|BM_EventQueuePushPop'
FILTER+='|BM_MonolithicSolve'

"${BUILD_DIR}/bench/bench_micro" \
  --benchmark_filter="${FILTER}" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions=5 \
  --benchmark_display_aggregates_only=true \
  --benchmark_out="${REPO_ROOT}/BENCH_sim.json" \
  --benchmark_out_format=json

python3 - "${REPO_ROOT}/BENCH_sim.json" <<'EOF'
import json
import statistics
import sys

doc = json.load(open(sys.argv[1]))
print(f"host CPUs: {doc['context']['num_cpus']}")
runs = {}
for bench in doc["benchmarks"]:
    if bench.get("run_type") == "iteration" and "items_per_second" in bench:
        runs.setdefault(bench["run_name"], []).append(bench["items_per_second"])
for name, rates in runs.items():
    q1, median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    print(f"{name}: median {median / 1e6:.2f}M items/s "
          f"(q1 {q1 / 1e6:.2f}M, q3 {q3 / 1e6:.2f}M, n = {len(rates)})")
EOF

echo "Wrote ${REPO_ROOT}/BENCH_sim.json"
