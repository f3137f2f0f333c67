#include "sim/trial_runner.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::sim {
namespace {

/// Everything the aggregation loop reads from one trial, captured while the
/// trial's scratch TrialMetrics is still live. Small (one short vector) so
/// keeping trial_count of these is cheap where trial_count full TrialMetrics
/// (node vectors + 256-bin histograms) would not be.
struct TrialDigest {
  bool miss_free = false;
  double active_fraction = 0.0;
  double miss_fraction = 0.0;
  std::uint64_t latency_count = 0;
  double latency_mean = 0.0;
  double latency_max = 0.0;
  bool has_histogram = false;
  double latency_p99 = 0.0;
  double occupancy = 0.0;
  std::vector<std::uint64_t> max_queue_lengths;
};

void capture_digest(const TrialMetrics& trial, TrialDigest& digest) {
  digest.miss_free = trial.miss_free();
  digest.active_fraction = trial.active_fraction();
  digest.miss_fraction = trial.miss_fraction();
  digest.latency_count = trial.output_latency.count();
  digest.latency_mean = trial.output_latency.mean();
  digest.latency_max = trial.output_latency.max();
  digest.has_histogram = trial.latency_histogram.has_value();
  digest.latency_p99 =
      digest.has_histogram ? trial.latency_quantile(0.99) : 0.0;
  digest.occupancy = trial.overall_occupancy();
  digest.max_queue_lengths.resize(trial.nodes.size());
  for (std::size_t i = 0; i < trial.nodes.size(); ++i) {
    digest.max_queue_lengths[i] = trial.nodes[i].max_queue_length;
  }
}

/// Runs `trial_count` trials in groups of `group` consecutive indices (the
/// last group may be short), `body(first, outs)` running one group into a
/// per-worker scratch, and aggregates every trial's digest in index order.
TrialSummary run_groups(const TrialGroupFn& body, std::uint64_t trial_count,
                        std::size_t group, util::ThreadPool* pool,
                        std::size_t grain) {
  RIPPLE_REQUIRE(static_cast<bool>(body), "trial body required");

#if RIPPLE_OBS
  // Metric handles are resolved once per run, never per trial; the per-group
  // cost when enabled is two metric updates per trial plus a host-domain
  // span.
  obs::Counter* trials_completed = nullptr;
  obs::LatencyHistogram* trial_wall_us = nullptr;
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    trials_completed = registry.counter("trials.completed");
    trial_wall_us = registry.histogram("trials.trial_wall_us");
  }
#endif

  std::vector<TrialDigest> digests(trial_count);
  auto run_one = [&](std::uint64_t first, std::size_t size) {
    // Scratch TrialMetrics per worker thread, reused across every group the
    // worker claims: the body resets counters and histogram bins in place,
    // so node vectors and histogram storage are allocated once per worker
    // rather than once per trial.
    thread_local std::array<TrialMetrics, kTrialLanes> scratch;
    const std::span<TrialMetrics> outs(scratch.data(), size);
    {
#if RIPPLE_OBS
      // Only trial 0 records: the other trials would write the same tracks
      // at the same virtual times from whichever thread ran them, so which
      // of their events a full ring kept would depend on scheduling.
      const obs::ScopedTraceMute mute(first != 0);
#endif
      body(first, outs);
    }
    for (std::size_t k = 0; k < size; ++k) {
      capture_digest(outs[k], digests[first + k]);
    }
  };
  auto wrapped = [&](std::size_t index) {
    const std::uint64_t first = static_cast<std::uint64_t>(index) * group;
    const std::size_t size =
        static_cast<std::size_t>(std::min<std::uint64_t>(group, trial_count - first));
#if RIPPLE_OBS
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      auto& session = obs::TraceSession::global();
      const double begin_us = session.host_now_us();
      trace.begin(obs::Domain::kHost, trace.track(), "trial", begin_us);
      run_one(first, size);
      const double end_us = session.host_now_us();
      trace.end(obs::Domain::kHost, trace.track(), "trial", end_us);
      // A group's wall time is split evenly over its trials.
      for (std::size_t k = 0; k < size; ++k) {
        if (trial_wall_us != nullptr) {
          trial_wall_us->record((end_us - begin_us) / static_cast<double>(size));
        }
        if (trials_completed != nullptr) trials_completed->increment();
      }
      return;
    }
#endif
    run_one(first, size);
  };
  const std::uint64_t groups = (trial_count + group - 1) / group;
  if (pool != nullptr) {
    pool->parallel_for(groups, wrapped, std::max<std::size_t>(1, grain / group));
  } else {
    for (std::uint64_t i = 0; i < groups; ++i) wrapped(i);
  }

  // Aggregation is serial and deterministic (trial order, not thread order),
  // replicating the exact conditionals of the historical full-TrialMetrics
  // loop so summaries are bit-identical for any pool/grain/group.
  TrialSummary summary;
  summary.trials = trial_count;
  for (const TrialDigest& trial : digests) {
    if (trial.miss_free) ++summary.miss_free_trials;
    summary.active_fraction.add(trial.active_fraction);
    summary.miss_fraction.add(trial.miss_fraction);
    if (trial.latency_count > 0) {
      summary.latency_mean.add(trial.latency_mean);
      summary.latency_max.add(trial.latency_max);
      if (trial.has_histogram) {
        summary.latency_p99.add(trial.latency_p99);
      }
    }
    summary.occupancy.add(trial.occupancy);
    if (summary.max_queue_lengths.size() < trial.max_queue_lengths.size()) {
      summary.max_queue_lengths.resize(trial.max_queue_lengths.size(), 0);
    }
    for (std::size_t i = 0; i < trial.max_queue_lengths.size(); ++i) {
      summary.max_queue_lengths[i] =
          std::max(summary.max_queue_lengths[i], trial.max_queue_lengths[i]);
    }
  }
  return summary;
}

}  // namespace

TrialSummary run_trials_into(const TrialBodyFn& body, std::uint64_t trial_count,
                             util::ThreadPool* pool, std::size_t grain) {
  RIPPLE_REQUIRE(static_cast<bool>(body), "trial body required");
  return run_groups(
      [&body](std::uint64_t trial, std::span<TrialMetrics> out) {
        body(trial, out[0]);
      },
      trial_count, 1, pool, grain);
}

TrialSummary run_trial_groups_into(const TrialGroupFn& body,
                                   std::uint64_t trial_count,
                                   util::ThreadPool* pool, std::size_t grain) {
  return run_groups(body, trial_count, kTrialLanes, pool, grain);
}

TrialSummary run_trials(const TrialFn& trial_fn, std::uint64_t trial_count,
                        util::ThreadPool* pool, std::size_t grain) {
  RIPPLE_REQUIRE(static_cast<bool>(trial_fn), "trial function required");
  return run_trials_into(
      [&trial_fn](std::uint64_t index, TrialMetrics& out) {
        out = trial_fn(index);
      },
      trial_count, pool, grain);
}

}  // namespace ripple::sim
