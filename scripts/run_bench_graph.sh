#!/usr/bin/env bash
# Run the DAG executor benchmarks and write BENCH_graph.json at the repo
# root: the branching mini-BLAST scenario through the DAG engine versus the
# duplicated-linear-chains workaround (one chain per extension variant, each
# re-running the shared seed-probe prefix), per-item reference rows for both
# measured scenarios, the telemetry fan-in scenario (tee x3 -> synchronizer
# -> merge).
#
# Prints the headline gate: duplicated-chains / DAG must be >= 1.3x — the
# topology win from running the shared prefix once. Service-time accounting
# predicts ~1.38x (2860 vs 2080 cycles of stage work per input), so 1.3x
# leaves margin for scheduling overhead while still failing if the DAG path
# ever regresses to re-running shared work.
#
# Usage: scripts/run_bench_graph.sh [build-dir] [min-time]
#   build-dir  defaults to ./build-bench (configured Release if missing —
#              benchmarks from a Debug tree are meaningless)
#   min-time   defaults to 0.5 (seconds per benchmark, forwarded to
#              --benchmark_min_time)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-bench}"
MIN_TIME="${2:-0.5}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
fi
if ! grep -q "CMAKE_BUILD_TYPE:STRING=Release" "${BUILD_DIR}/CMakeCache.txt"; then
  echo "warning: ${BUILD_DIR} is not a Release build; timings will be skewed" >&2
fi
cmake --build "${BUILD_DIR}" --target bench_graph -j"$(nproc)"

"${BUILD_DIR}/bench/bench_graph" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions=1 \
  --benchmark_out="${REPO_ROOT}/BENCH_graph.json" \
  --benchmark_out_format=json

python3 - "${REPO_ROOT}/BENCH_graph.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {b["name"]: b["real_time"] for b in doc["benchmarks"]
         if not b.get("error_occurred")}

dag = times.get("BM_GraphBranchingBlast")
chains = times.get("BM_DuplicatedChains")
reference = times.get("BM_GraphBranchingBlast_Reference")
if dag and reference:
    print(f"branching mini-BLAST: per-item reference / DAG vector engine = "
          f"{reference / dag:.2f}x")

fanin = times.get("BM_TelemetryFanin")
fanin_ref = times.get("BM_TelemetryFanin_Reference")
if fanin and fanin_ref:
    print(f"telemetry fan-in: per-item reference / DAG vector engine = "
          f"{fanin_ref / fanin:.2f}x")

# Headline gate: the DAG must beat the duplicated-chain workaround by the
# shared-prefix margin. Hard failure — CI and local runs treat a miss as a
# regression in the DAG execution path.
if not (dag and chains):
    print("gate: missing BM_GraphBranchingBlast / BM_DuplicatedChains rows "
          "[FAIL]")
    sys.exit(1)
speedup = chains / dag
bar = speedup >= 1.3
print(f"gate: duplicated chains / DAG = {speedup:.2f}x "
      f"(bar: >= 1.3x) [{'PASS' if bar else 'FAIL'}]")
sys.exit(0 if bar else 1)
PY

echo "Wrote ${REPO_ROOT}/BENCH_graph.json"
