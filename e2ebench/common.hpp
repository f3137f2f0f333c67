// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// report every workload fills in, wall/CPU clocks, order statistics, and the
// benchmark-side tracing (spans recorded into the src/obs trace rings from
// this directory's own code, around the calls it makes into each module).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path for --trace 1 runs
};

/// One named value with its unit, printed as "name value unit" and emitted
/// in the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): correctness, operation counts, the
/// gated end-to-end metrics (--trace 0) or per-layer metrics (--trace 1),
/// the wall-clock figures of its path, and human-readable notes printed
/// before the JSON line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Wall-clock end-to-end figures (latency, throughput, failed_ratio).
  /// Printed on every run; reported as metrics by --trace 1 runs only,
  /// because host CPU steal moves them by more than a gate could allow.
  std::vector<Metric> figures;
  std::vector<std::string> notes;
  /// Set when worker threads could not be stopped: main() prints the report
  /// and exits without running destructors that would join them.
  bool abandon_threads = false;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void figure(std::string name, double value, std::string unit) {
    figures.push_back({std::move(name), value, std::move(unit)});
  }
  double failed_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) / static_cast<double>(attempted);
  }
  /// Record a failed output check: the run is marked incorrect and the
  /// reason is printed.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Microseconds on the steady clock since an arbitrary process-wide epoch;
/// cheap enough to call per item from stage wrappers.
double now_us();

/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// CPU seconds consumed by the whole process.
double process_cpu_s();

/// Peak resident set size of this process, in MB (VmHWM).
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Median of field(item) over `items`.
template <typename T, typename Field>
double median_by(const std::vector<T>& items, Field field) {
  std::vector<double> values;
  values.reserve(items.size());
  for (const T& item : items) values.push_back(field(item));
  return median(std::move(values));
}

/// Set-up cost: runs teardown() then build() `count` times and returns the
/// median process CPU seconds of build(). CPU time, not wall time, so that
/// host CPU steal does not move it; work moved into set-up still shows.
template <typename Teardown, typename Build>
double setup_cpu_s(std::size_t count, Teardown teardown, Build build) {
  std::vector<double> times;
  for (std::size_t k = 0; k < count; ++k) {
    teardown();
    const double start = process_cpu_s();
    build();
    times.push_back(process_cpu_s() - start);
  }
  return median(std::move(times));
}

/// FNV-1a over raw bytes, for result digests.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t hash = 1469598103934665603ULL);
std::string hex64(std::uint64_t value);

/// A host-domain span on the calling thread's src/obs trace ring, from
/// construction to destruction; does nothing when `active` is false.
class Span {
 public:
  Span(bool active, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
};

/// A host-domain counter sample on the calling thread's trace ring (when
/// recording is armed); `name` must be a string literal.
void trace_counter(const char* name, std::uint32_t track, double value);

/// Arm src/obs recording (benchmark spans only: the libraries are built
/// without RIPPLE_OBS, so their call sites are compiled out).
void start_tracing();
/// Stop recording and write every recorded event as a Chrome trace; notes
/// the event count, or the failure to write.
void export_trace(const std::string& path, Report& report);

void run_offline_plan(const Args& args, Report& report);
void run_batch_exec(const Args& args, Report& report);
void run_live_ingest(const Args& args, Report& report);

}  // namespace e2e
