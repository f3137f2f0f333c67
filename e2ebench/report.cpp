#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"

namespace e2e {

namespace {
const Clock::time_point kEpoch = Clock::now();
}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

Span::Span(bool active, const char* name) : name_(name), active_(active) {
  if (!active_) return;
  ripple::obs::TraceWriter trace = ripple::obs::TraceWriter::for_current_thread();
  trace.begin(ripple::obs::Domain::kHost, trace.track(), name_,
              ripple::obs::TraceSession::global().host_now_us());
}

Span::~Span() {
  if (!active_) return;
  ripple::obs::TraceWriter trace = ripple::obs::TraceWriter::for_current_thread();
  trace.end(ripple::obs::Domain::kHost, trace.track(), name_,
            ripple::obs::TraceSession::global().host_now_us());
}

void trace_counter(const char* name, std::uint32_t track, double value) {
  ripple::obs::TraceWriter trace = ripple::obs::TraceWriter::for_current_thread();
  if (!trace.active()) return;
  trace.counter(ripple::obs::Domain::kHost, track, name,
                ripple::obs::TraceSession::global().host_now_us(), value);
}

void start_tracing() {
  ripple::obs::TraceSession::global().clear();
  ripple::obs::set_enabled(true);
}

void export_trace(const std::string& path, Report& report) {
  ripple::obs::set_enabled(false);
  const auto events = ripple::obs::TraceSession::global().drain();
  std::ofstream out(path);
  if (!out) {
    report.note("trace: cannot write " + path);
    return;
  }
  ripple::obs::write_chrome_trace(out, events,
                                  ripple::obs::TraceSession::global());
  report.note("trace: " + std::to_string(events.size()) + " events -> " + path);
}

}  // namespace e2e
