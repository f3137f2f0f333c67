// Measurements collected by one simulation trial.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/lane_streams.hpp"
#include "dist/stats.hpp"
#include "util/types.hpp"

namespace ripple::sim {

/// Trials a lockstep group runs side by side (simulate_enforced_waits_lanes,
/// run_trial_groups_into): one gain stream per lane of dist::LaneStreams.
inline constexpr std::size_t kTrialLanes = dist::kStreamLanes;

/// Per-node counters. Cache-line aligned: adjacent nodes' counters live in a
/// contiguous vector and are hammered from different threads when shards run
/// side by side, so sharing a line across nodes turns every counter bump
/// into cross-core traffic (see BM_MetricsContention).
struct alignas(64) NodeMetrics {
  std::uint64_t firings = 0;         ///< firings that consumed >= 1 item
  std::uint64_t empty_firings = 0;   ///< firings on an empty queue (paper §4)
  std::uint64_t items_consumed = 0;  ///< inputs taken across all firings
  std::uint64_t items_produced = 0;  ///< outputs emitted toward the next node
  Cycles active_time = 0.0;          ///< total service time charged
  std::uint64_t max_queue_length = 0;  ///< peak input-queue depth observed

  /// Mean SIMD occupancy: items consumed per firing relative to the vector
  /// width (the paper's per-node utilization measure). Zero when the node
  /// never fired.
  double mean_occupancy(std::uint32_t vector_width) const {
    if (firings == 0) return 0.0;
    return static_cast<double>(items_consumed) /
           (static_cast<double>(firings) * static_cast<double>(vector_width));
  }
};

/// Results of one trial.
struct TrialMetrics {
  std::vector<NodeMetrics> nodes;

  std::uint64_t inputs_arrived = 0;
  /// Root inputs whose every sink output left by the deadline (vacuously
  /// satisfied when an input is filtered out entirely).
  std::uint64_t inputs_on_time = 0;
  /// Root inputs with at least one late sink output (the paper's "inputs
  /// incurring a miss").
  std::uint64_t inputs_missed = 0;

  std::uint64_t sink_outputs = 0;
  dist::RunningStats output_latency;  ///< per sink output: exit - root arrival

  /// Latency histogram over [0, 4D) (present when a deadline was configured),
  /// for percentile reporting beyond min/mean/max.
  std::optional<dist::Histogram> latency_histogram;

  /// Record one output latency into both the running stats and (when armed)
  /// the histogram.
  void record_latency(Cycles latency) {
    output_latency.add(latency);
    if (latency_histogram.has_value()) latency_histogram->add(latency);
  }

  /// Arm the histogram for a given deadline; disarms when deadline <= 0. A
  /// histogram already shaped for this deadline is cleared in place rather
  /// than reallocated, so buffer-reusing trial loops (run_trials_into) touch
  /// the allocator only on the first trial.
  void arm_latency_histogram(Cycles deadline) {
    if (deadline > 0.0) {
      const Cycles hi = 4.0 * deadline;
      if (latency_histogram.has_value() && latency_histogram->lo() == 0.0 &&
          latency_histogram->hi() == hi &&
          latency_histogram->bin_count() == 256) {
        latency_histogram->reset();
      } else {
        latency_histogram.emplace(0.0, hi, 256);
      }
    } else {
      latency_histogram.reset();
    }
  }

  /// Reset every counter for a fresh trial while keeping allocated buffers
  /// (node storage; the histogram is handled by arm_latency_histogram).
  void reset(std::size_t node_count) {
    nodes.assign(node_count, NodeMetrics{});
    inputs_arrived = 0;
    inputs_on_time = 0;
    inputs_missed = 0;
    sink_outputs = 0;
    output_latency = dist::RunningStats{};
    makespan = 0.0;
    vector_width = 0;
    events_processed = 0;
    sharing_actors = 0;
  }

  /// Latency percentile (e.g. 0.99); falls back to max() without a histogram.
  Cycles latency_quantile(double q) const {
    if (latency_histogram.has_value() && latency_histogram->total() > 0) {
      return latency_histogram->quantile(q);
    }
    return output_latency.max();
  }

  Cycles makespan = 0.0;  ///< time at which the last output left
  std::uint32_t vector_width = 0;

  /// Scheduler events the trial dispatched (discrete-event sims) or firings
  /// executed (tick-based sims); 0 when the simulator does not track it.
  /// Drives the events/sec throughput counters in bench_micro.
  std::uint64_t events_processed = 0;

  /// Number of concurrent actors sharing the processor for active-fraction
  /// accounting: N for enforced waits (each node is active or waiting for
  /// the whole run), 1 for the monolithic strategy (the pipeline runs as a
  /// unit and owns the whole allocation). 0 defaults to nodes.size().
  std::size_t sharing_actors = 0;

  /// Fraction of inputs that missed the deadline.
  double miss_fraction() const {
    return inputs_arrived == 0
               ? 0.0
               : static_cast<double>(inputs_missed) /
                     static_cast<double>(inputs_arrived);
  }

  bool miss_free() const { return inputs_missed == 0; }

  /// Measured active fraction: total node-active time over the total
  /// active-plus-waiting time (each of N nodes is active or waiting for the
  /// whole makespan, so the denominator is N * makespan).
  double active_fraction() const;

  /// Items-weighted mean SIMD occupancy across all nodes' firings.
  double overall_occupancy() const;
};

}  // namespace ripple::sim
