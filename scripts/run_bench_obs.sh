#!/usr/bin/env bash
# Observability overhead gate: prove that compiling the RIPPLE_OBS
# instrumentation in — with recording left OFF — costs less than 2% of
# enforced-simulator CPU time. Writes BENCH_obs.json at the repo root
# (alongside BENCH_sim.json) and exits nonzero when the gate fails.
#
# Method: build the benchmark twice (RIPPLE_OBS=OFF and =ON, both Release),
# then run BM_EnforcedSimulation/10000 in interleaved rounds, both binaries
# pinned to the same core, alternating which build runs first, and compare
# the *medians* of google-benchmark's cpu_time (ns per iteration). CPU time
# on one pinned core leaves out the steal and migration that move
# wall-clock rates by 10-20% between minutes on shared hosts; interleaving
# and alternating the order spread the remaining drift over both builds.
#
# Usage: scripts/run_bench_obs.sh [rounds] [min-time]
#   rounds    interleaved rounds, one run of each build per round
#             (default 20)
#   min-time  seconds per benchmark invocation (default 0.2)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ROUNDS="${1:-20}"
MIN_TIME="${2:-0.2}"
BUILD_OFF="${REPO_ROOT}/build-obs-off"
BUILD_ON="${REPO_ROOT}/build-obs-on"
# The last CPU this process may run on; both builds run there.
CORE="$(taskset -cp $$ | sed 's/.*: //' | tr ',' '\n' | tail -n 1 | sed 's/.*-//')"
BENCH_ARGS=(--benchmark_filter='BM_EnforcedSimulation/10000$'
            --benchmark_min_time="${MIN_TIME}"
            --benchmark_format=json)

for dir_flag in "${BUILD_OFF}:OFF" "${BUILD_ON}:ON"; do
  dir="${dir_flag%%:*}"
  flag="${dir_flag##*:}"
  if [[ ! -f "${dir}/CMakeCache.txt" ]]; then
    cmake -B "${dir}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release \
      -DRIPPLE_OBS="${flag}"
  fi
  cmake --build "${dir}" --target bench_micro -j"$(nproc)"
done

OFF_RUNS="$(mktemp)"
ON_RUNS="$(mktemp)"
trap 'rm -f "${OFF_RUNS}" "${ON_RUNS}"' EXIT

run_off() {
  taskset -c "${CORE}" "${BUILD_OFF}/bench/bench_micro" "${BENCH_ARGS[@]}" \
    >> "${OFF_RUNS}"
}
run_on() {
  taskset -c "${CORE}" "${BUILD_ON}/bench/bench_micro" "${BENCH_ARGS[@]}" \
    >> "${ON_RUNS}"
}

for ((round = 0; round < ROUNDS; ++round)); do
  if ((round % 2 == 0)); then
    echo "round $((round + 1))/${ROUNDS} on CPU ${CORE}: RIPPLE_OBS=OFF then =ON" >&2
    run_off
    run_on
  else
    echo "round $((round + 1))/${ROUNDS} on CPU ${CORE}: RIPPLE_OBS=ON then =OFF" >&2
    run_on
    run_off
  fi
done

status=0
python3 - "${OFF_RUNS}" "${ON_RUNS}" "${REPO_ROOT}/BENCH_obs.json" "${CORE}" <<'EOF' || status=$?
import json
import statistics
import sys

def cpu_times(path):
    # Each run appended one complete JSON document; split on the closing
    # brace at column 0 that google-benchmark emits.
    text = open(path).read()
    values = []
    for chunk in text.split("\n}\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.endswith("}"):
            chunk += "\n}"
        doc = json.loads(chunk)
        for bench in doc.get("benchmarks", []):
            assert bench["time_unit"] == "ns", bench["time_unit"]
            values.append(bench["cpu_time"])
    return values

def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

off = cpu_times(sys.argv[1])
on = cpu_times(sys.argv[2])
off_q = quartiles(off)
on_q = quartiles(on)
overhead = (on_q[1] - off_q[1]) / off_q[1]
report = {
    "schema": "ripple.bench_obs.v2",
    "benchmark": "BM_EnforcedSimulation/10000",
    "metric": "cpu_time_ns",
    "pinned_cpu": int(sys.argv[4]),
    "rounds": len(off),
    "obs_off_median": off_q[1],
    "obs_off_quartiles": [off_q[0], off_q[2]],
    "obs_on_median": on_q[1],
    "obs_on_quartiles": [on_q[0], on_q[2]],
    "obs_off_runs": off,
    "obs_on_runs": on,
    "disabled_overhead_fraction": overhead,
    "gate_threshold": 0.02,
    "gate_passed": overhead < 0.02,
}
with open(sys.argv[3], "w") as out:
    json.dump(report, out, indent=2)
    out.write("\n")
for label, (q1, median, q3) in (("OFF", off_q), ("ON ", on_q)):
    print(f"RIPPLE_OBS={label} cpu_time median {median / 1e6:.4f} ms "
          f"(q1 {q1 / 1e6:.4f}, q3 {q3 / 1e6:.4f}, n = {len(off)})")
print(f"disabled-path overhead: {overhead * 100:+.2f}% (gate: < 2%)")
sys.exit(0 if report["gate_passed"] else 1)
EOF
echo "Wrote ${REPO_ROOT}/BENCH_obs.json"
exit "${status}"
