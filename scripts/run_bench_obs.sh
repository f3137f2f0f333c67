#!/usr/bin/env bash
# Observability overhead gate: prove that compiling the RIPPLE_OBS
# instrumentation in — with recording left OFF — costs less than 2% of
# enforced-simulator CPU time. Writes BENCH_obs.json at the repo root
# (alongside BENCH_sim.json) and exits nonzero when the gate fails.
#
# Method: build bench_micro twice (RIPPLE_OBS=OFF and =ON, both Release).
# Where the linker places the hot loop moves its CPU time by about ±10%
# between otherwise identical binaries on the 4-core reference host, so one
# binary per build measures placement luck, not instrumentation. Each build
# is therefore relinked into six binaries that link the same object
# files — bench_micro's own object and every member of every static library
# it links — in a different seeded order, with the same seeds for both
# builds, so each build is measured over a sample of code placements. All
# twelve binaries run BM_EnforcedSimulation/10000 in interleaved rounds,
# pinned to the same core, alternating which build runs first, and report
# google-benchmark's cpu_time (ns per iteration): CPU time on one pinned
# core leaves out the steal and migration that move wall-clock rates by
# 10-20% between minutes on shared hosts. The host's speed still moves by up
# to 1.6x for a second or more, which shifts both runs of a layout's
# adjacent ON/OFF pair alike, so the statistic is paired: for each layout,
# the median over rounds of log(ON / OFF) of its adjacent pair; then the
# mean over layouts, reported as a fraction. The layouts are fixed by their
# seeds, so two runs on one tree measure the same binaries.
#
# Usage: scripts/run_bench_obs.sh [rounds] [min-time]
#   rounds    interleaved rounds; each runs every binary once (default 40)
#   min-time  seconds per benchmark invocation (default 0.05: short runs
#             keep a pair inside one host speed phase)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ROUNDS="${1:-40}"
MIN_TIME="${2:-0.05}"
# Link orders per build.
LAYOUTS=6
BUILD_OFF="${REPO_ROOT}/build-obs-off"
BUILD_ON="${REPO_ROOT}/build-obs-on"
# The last CPU this process may run on; every binary runs there.
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

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# relink BUILD_DIR OUT SEED: bench_micro of BUILD_DIR, every object in a
# seeded order. Reads the link command the build itself used (Makefile
# link.txt, or the last command Ninja runs for the target).
relink() {
  python3 - "$1" "$2" "$3" <<'EOF'
import os
import random
import shlex
import subprocess
import sys

build, out, seed = sys.argv[1], os.path.abspath(sys.argv[2]), int(sys.argv[3])
bench = os.path.join(build, "bench")
link_txt = os.path.join(bench, "CMakeFiles", "bench_micro.dir", "link.txt")
if os.path.exists(link_txt):
    tokens = shlex.split(open(link_txt).read())
    cwd = bench
else:
    commands = subprocess.run(["ninja", "-C", build, "-t", "commands",
                               "bench/bench_micro"], capture_output=True,
                              text=True, check=True).stdout.strip()
    link = [part for part in commands.splitlines()[-1].split("&&")
            if " -o " in part]
    tokens = shlex.split(link[0])
    cwd = build
objects, archives, rest = [], [], []
for token in tokens:
    if token.endswith(".o"):
        objects.append(os.path.join(cwd, token))
    elif token.endswith(".a"):
        path = os.path.normpath(os.path.join(cwd, token))
        if path not in archives:
            archives.append(path)
    else:
        rest.append(token)
members_root = out + ".objects"
for archive in archives:
    where = os.path.join(members_root, os.path.basename(archive))
    os.makedirs(where, exist_ok=True)
    subprocess.run(["ar", "x", archive], cwd=where, check=True)
    names = subprocess.run(["ar", "t", archive], capture_output=True,
                           text=True, check=True).stdout.split()
    objects += [os.path.join(where, name) for name in names]
random.Random(seed).shuffle(objects)
at = rest.index("-o")
command = rest[:at] + objects + ["-o", out] + rest[at + 2:]
subprocess.run(command, cwd=cwd, check=True)
EOF
}

BINARIES=()
for ((layout = 1; layout <= LAYOUTS; ++layout)); do
  relink "${BUILD_OFF}" "${WORK}/off-${layout}" "${layout}"
  relink "${BUILD_ON}" "${WORK}/on-${layout}" "${layout}"
  BINARIES+=("off-${layout}" "on-${layout}")
done

for ((round = 0; round < ROUNDS; ++round)); do
  if ((round % 2 == 0)); then
    order=("${BINARIES[@]}")
    echo "round $((round + 1))/${ROUNDS} on CPU ${CORE}: OFF first" >&2
  else
    order=()
    for ((i = 0; i < ${#BINARIES[@]}; i += 2)); do
      order+=("${BINARIES[i + 1]}" "${BINARIES[i]}")
    done
    echo "round $((round + 1))/${ROUNDS} on CPU ${CORE}: ON first" >&2
  fi
  for binary in "${order[@]}"; do
    taskset -c "${CORE}" "${WORK}/${binary}" "${BENCH_ARGS[@]}" \
      >> "${WORK}/${binary}.runs"
  done
done

status=0
python3 - "${WORK}" "${LAYOUTS}" "${REPO_ROOT}/BENCH_obs.json" "${CORE}" <<'EOF' || status=$?
import json
import math
import os
import statistics
import sys

work, layouts = sys.argv[1], int(sys.argv[2])

def cpu_times(path):
    # Each run appended one complete JSON document; split on the closing
    # brace at column 0 that google-benchmark emits.
    values = []
    for chunk in open(path).read().split("\n}\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.endswith("}"):
            chunk += "\n}"
        for bench in json.loads(chunk).get("benchmarks", []):
            assert bench["time_unit"] == "ns", bench["time_unit"]
            values.append(bench["cpu_time"])
    return values

def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3

sides = {}
for side in ("off", "on"):
    sides[side] = []
    for layout in range(1, layouts + 1):
        runs = cpu_times(os.path.join(work, f"{side}-{layout}.runs"))
        q1, median, q3 = quartiles(runs)
        sides[side].append({"layout_seed": layout, "median": median,
                            "quartiles": [q1, q3], "runs": runs})
# Run r of a layout's OFF and ON binaries ran back to back in round r.
paired = []
for off, on in zip(sides["off"], sides["on"]):
    paired.append(statistics.median(
        math.log(b / a) for a, b in zip(off["runs"], on["runs"])))
overhead = math.exp(statistics.fmean(paired)) - 1
report = {
    "schema": "ripple.bench_obs.v3",
    "benchmark": "BM_EnforcedSimulation/10000",
    "metric": "cpu_time_ns",
    "statistic": "mean over link layouts of the median over rounds of "
                 "log(ON / OFF) of each layout's adjacent pair",
    "pinned_cpu": int(sys.argv[4]),
    "layouts": layouts,
    "rounds": len(sides["off"][0]["runs"]),
    "obs_off": sides["off"],
    "obs_on": sides["on"],
    "layout_overhead_fractions": [math.exp(x) - 1 for x in paired],
    "disabled_overhead_fraction": overhead,
    "gate_threshold": 0.02,
    "gate_passed": overhead < 0.02,
}
with open(sys.argv[3], "w") as out:
    json.dump(report, out, indent=2)
    out.write("\n")
for side, label in (("off", "OFF"), ("on", "ON ")):
    medians = ", ".join(f"{b['median'] / 1e6:.4f}" for b in sides[side])
    print(f"RIPPLE_OBS={label} cpu_time medians by layout (ms): {medians}")
by_layout = ", ".join(f"{(math.exp(x) - 1) * 100:+.2f}%" for x in paired)
print(f"paired ON/OFF overhead by layout: {by_layout}")
print(f"disabled-path overhead: {overhead * 100:+.2f}% (gate: < 2%)")
sys.exit(0 if report["gate_passed"] else 1)
EOF
echo "Wrote ${REPO_ROOT}/BENCH_obs.json"
exit "${status}"
