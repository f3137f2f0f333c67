#!/usr/bin/env bash
# Run the vector-wide executor benchmarks and write BENCH_runtime.json at the
# repo root: end-to-end mini-BLAST through the per-item reference engine, the
# adapter path, the batched-scalar path, and the SIMD path, plus stage-kernel
# micros with one row per ISA (scalar, neon, avx2, avx512). Rows for ISAs
# this host/build cannot run are recorded as skipped in the JSON and shown as
# '-' in the summary table, so results from different machines stay
# comparable. Prints the end-to-end speedup of the SIMD batch path over the
# per-item reference and the per-kernel speedups versus scalar.
#
# Usage: scripts/run_bench_runtime.sh [build-dir] [min-time]
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
cmake --build "${BUILD_DIR}" --target bench_runtime -j"$(nproc)"

"${BUILD_DIR}/bench/bench_runtime" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions=1 \
  --benchmark_out="${REPO_ROOT}/BENCH_runtime.json" \
  --benchmark_out_format=json

python3 - "${REPO_ROOT}/BENCH_runtime.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
times = {b["name"]: b["real_time"] for b in doc["benchmarks"]}

reference = times.get("BM_MiniBlastEndToEnd_Reference")
simd = times.get("BM_MiniBlastEndToEnd_BatchSimd")
scalar = times.get("BM_MiniBlastEndToEnd_BatchScalar")
if reference and simd:
    print(f"end-to-end mini-BLAST: reference / batch+SIMD = "
          f"{reference / simd:.2f}x")
if reference and scalar:
    print(f"end-to-end mini-BLAST: reference / batch+scalar = "
          f"{reference / scalar:.2f}x")

# Per-ISA kernel micros: rows are BM_<Kernel>/<level-arg> with the resolved
# ISA in the label; skipped rows (ISA unavailable here) carry error_occurred.
kernels = {}
for b in doc["benchmarks"]:
    name = b["name"]
    if "Kernel/" not in name or b.get("error_occurred"):
        continue
    kernels.setdefault(name.split("/")[0], {})[b.get("label", "?")] = \
        b["real_time"]
if kernels:
    print("per-ISA kernel micros (speedup vs scalar; '-' = unavailable "
          "on this host/build):")
best = (0.0, None)
for base, t in sorted(kernels.items()):
    cells = []
    for isa in ("neon", "avx2", "avx512"):
        if "scalar" in t and isa in t:
            cells.append(f"{isa}={t['scalar'] / t[isa]:6.2f}x")
        else:
            cells.append(f"{isa}=     -")
    print(f"  {base:24s} {'  '.join(cells)}")
    if "avx2" in t and "avx512" in t:
        best = max(best, (t["avx2"] / t["avx512"], base))
if best[1] is not None:
    print(f"best avx512-over-avx2 kernel: {best[1]} at {best[0]:.2f}x")
PY

echo "Wrote ${REPO_ROOT}/BENCH_runtime.json"
