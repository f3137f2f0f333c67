// ripple_e2e: one workload of the end-to-end benchmark per invocation.
//
//   ripple_e2e --workload offline_plan|batch_exec|live_ingest --seed N
//              --seconds S --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//
// Prints host context, the workload's notes and metrics as "name value unit"
// lines, and as its last line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 means the run completed, not that its output
// checks passed: "correct" carries that.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"
#include "device/dispatch.hpp"

#ifndef RIPPLE_E2E_BUILD_TYPE
#define RIPPLE_E2E_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int usage() {
  std::cerr << "usage: ripple_e2e --workload offline_plan|batch_exec|live_ingest"
               " --seed N --seconds S --trace 0|1 [--trace-out PATH]"
               " [--git-sha SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = value != "0";
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else if (key == "--git-sha") {
        git_sha = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !(args.seconds > 0.0)) {
    return usage();
  }

  std::cout << "host: nproc " << sysconf(_SC_NPROCESSORS_ONLN) << ", cpu \""
            << cpu_model() << "\", build " << RIPPLE_E2E_BUILD_TYPE
            << ", git " << git_sha << ", simd "
            << ripple::device::to_string(ripple::device::active_simd_level())
            << "\n"
            << "run: workload " << args.workload << ", seed " << args.seed
            << ", seconds " << args.seconds << ", trace " << args.trace
            << "\n";

  e2e::Report report;
  try {
    if (args.trace) e2e::start_tracing();
    if (args.workload == "offline_plan") {
      e2e::run_offline_plan(args, report);
    } else if (args.workload == "batch_exec") {
      e2e::run_batch_exec(args, report);
    } else if (args.workload == "live_ingest") {
      e2e::run_live_ingest(args, report);
    } else {
      std::cerr << "unknown workload " << args.workload << "\n";
      return usage();
    }
    if (args.trace && !args.trace_out.empty()) {
      e2e::export_trace(args.trace_out, report);
    }
  } catch (const std::exception& error) {
    std::cerr << "ripple_e2e: " << error.what() << "\n";
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << note << "\n";
  for (const e2e::Metric& f : report.figures) {
    std::cout << "e2e " << f.name << " " << json_number(f.value) << " " << f.unit << "\n";
  }
  if (args.trace) {
    report.metrics.insert(report.metrics.end(), report.figures.begin(),
                          report.figures.end());
  }
  for (const e2e::Metric& m : report.metrics) {
    std::cout << "metric " << m.name << " " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const e2e::Metric& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << json_escape(m.name)
              << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
              << json_escape(m.unit) << "\"}";
  }
  std::cout << "}}" << std::endl;
  if (report.abandon_threads) std::_Exit(0);
  return 0;
}
