// Multi-trial experiment driver: run R independent seeded trials (optionally
// across a thread pool) and aggregate the statistics the paper reports —
// the fraction of miss-free trials, mean miss fraction, and mean measured
// active fraction.
//
// On RIPPLE_OBS builds with recording enabled, every trial body (every
// group body, for the group driver) is wrapped in a host-domain "trial" span
// on the executing worker's track, and the driver feeds the
// `trials.completed` counter and `trials.trial_wall_us` histogram in the
// global metrics registry (docs/OBSERVABILITY.md). Trace recording is muted
// for every trial but trial 0 (obs::ScopedTraceMute), so a traced run keeps
// one trial's sim timeline, the same for any pool size.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dist/stats.hpp"
#include "sim/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ripple::sim {

/// Builds and runs one trial given its index; must be thread-safe across
/// distinct indices (derive the trial seed from the index).
using TrialFn = std::function<TrialMetrics(std::uint64_t trial_index)>;

/// Lockstep trial group: run trials [first_trial, first_trial + out.size())
/// into out[0], out[1], ... (simulate_enforced_waits_lanes). Like a trial
/// body, it must be thread-safe across distinct groups and fully overwrite
/// every out[k].
using TrialGroupFn =
    std::function<void(std::uint64_t first_trial, std::span<TrialMetrics> out)>;

/// In-place trial body: run the trial for `trial_index` into `out`. The
/// driver hands each worker a thread-local scratch TrialMetrics that is
/// reused across every trial that worker claims, so the body must fully
/// overwrite it (the simulate_*_into entry points do — they reset counters
/// and histogram bins while keeping allocations).
using TrialBodyFn =
    std::function<void(std::uint64_t trial_index, TrialMetrics& out)>;

struct TrialSummary {
  std::uint64_t trials = 0;
  std::uint64_t miss_free_trials = 0;

  dist::RunningStats active_fraction;  ///< across trials
  dist::RunningStats miss_fraction;    ///< across trials
  dist::RunningStats latency_mean;     ///< per-trial mean output latency
  dist::RunningStats latency_max;      ///< per-trial max output latency
  dist::RunningStats latency_p99;      ///< per-trial 99th-percentile latency
                                       ///< (histogram-based; needs a deadline)
  dist::RunningStats occupancy;        ///< per-trial overall SIMD occupancy

  /// Per-node maximum queue length observed across every trial, in items.
  std::vector<std::uint64_t> max_queue_lengths;

  double miss_free_fraction() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(miss_free_trials) /
                             static_cast<double>(trials);
  }

  /// Wilson 95% interval on the miss-free trial proportion.
  dist::ProportionInterval miss_free_interval() const {
    return dist::wilson_interval(miss_free_trials, trials);
  }
};

/// Run `trial_count` trials. `pool` may be null for serial execution.
///
/// `grain` is forwarded to ThreadPool::parallel_for: each worker claims
/// `grain` consecutive trial indices per atomic fetch. Results are identical
/// for every grain (and to serial execution) because each trial derives its
/// seed from its own index and aggregation happens serially in index order.
TrialSummary run_trials(const TrialFn& trial_fn, std::uint64_t trial_count,
                        util::ThreadPool* pool = nullptr, std::size_t grain = 1);

/// Buffer-reusing driver: each worker thread runs its claimed trials into one
/// thread-local scratch TrialMetrics (node vectors and histogram bins are
/// allocated once per worker, not once per trial) and only a small per-trial
/// digest is kept. Aggregation replicates run_trials exactly — serial, in
/// index order, with the same conditionals — so the TrialSummary is
/// bit-identical to the value-returning API for any pool/grain.
TrialSummary run_trials_into(const TrialBodyFn& body, std::uint64_t trial_count,
                             util::ThreadPool* pool = nullptr,
                             std::size_t grain = 1);

/// Group driver: runs the trials in groups of kTrialLanes consecutive
/// indices (the last group may be short), each group through one call of
/// `body`, and aggregates exactly as run_trials_into — so the TrialSummary is
/// bit-identical to running the same trials one by one, for any pool and
/// grain. `grain` counts trials: a worker claims max(1, grain / kTrialLanes)
/// groups per fetch.
TrialSummary run_trial_groups_into(const TrialGroupFn& body,
                                   std::uint64_t trial_count,
                                   util::ThreadPool* pool = nullptr,
                                   std::size_t grain = 1);

}  // namespace ripple::sim
