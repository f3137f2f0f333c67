#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds e2ebench/ (the repository libraries
from ../src plus the ripple_e2e binary) into .bench_build/ on first use,
runs one workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics, where a layer the workload does not exercise reads 0, and the run
also writes a Chrome trace of the benchmark's spans to .bench_build/traces/.
Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(BUILD, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "ripple_e2e")
WORKLOADS = ("offline_plan", "batch_exec", "live_ingest")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ripple_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("e2ebench: build failed:", error)
        return 1

    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed % (1 << 64)),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        log(f"e2ebench: ripple_e2e exited with {run.returncode}")
        return 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            if not args.trace:
                log(f"e2ebench: end-to-end metric {metric['name']} missing")
                return 1
            got = {"value": 0, "unit": metric["unit"]}  # layer not exercised
        if got["unit"] != metric["unit"]:
            log(f"e2ebench: {metric['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {metric['unit']}")
            return 1
        metrics[metric["name"]] = got
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        log("e2ebench: metrics missing from BENCHMARK.json:", sorted(extra))
        return 1
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
