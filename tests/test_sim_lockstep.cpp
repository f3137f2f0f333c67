// Digest fixture for the enforced-waits trials that calibration runs: every
// TrialMetrics field of every trial, folded in trial order into one FNV-1a
// digest per case family and pinned. The families are the feasible
// calibration probes of the Table-1 chain at three b vectors, chain variants
// (deadline misses, vacation firings, aligned phase offsets) and both
// scenario DAGs. Each case runs 13 trials, so a group of 8 lanes leaves a
// partial last group of 5. Every trial runs alone through
// simulate_enforced_waits_into, the oracle, and again in lockstep groups
// through simulate_enforced_waits_lanes, which must reproduce it trial by
// trial; the group runner must reproduce the per-trial runner's summary for
// every pool size and grain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "calib/calibrate.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "graph/graph_spec.hpp"
#include "graph/scenarios.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/topology.hpp"
#include "sim/trial_runner.hpp"
#include "util/thread_pool.hpp"

namespace ripple::sim {
namespace {

/// FNV-1a over every TrialMetrics field (the same fields as
/// tests/test_graph_sim_golden.cpp).
std::uint64_t metrics_digest(const TrialMetrics& m) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const auto& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(value); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  mix(m.nodes.size());
  for (const NodeMetrics& node : m.nodes) {
    mix(node.firings);
    mix(node.empty_firings);
    mix(node.items_consumed);
    mix(node.items_produced);
    mix(node.active_time);
    mix(node.max_queue_length);
  }
  mix(m.inputs_arrived);
  mix(m.inputs_on_time);
  mix(m.inputs_missed);
  mix(m.sink_outputs);
  mix(m.output_latency.count());
  mix(m.output_latency.mean());
  mix(m.output_latency.variance());
  mix(m.output_latency.min());
  mix(m.output_latency.max());
  mix(m.latency_histogram.has_value());
  if (m.latency_histogram.has_value()) {
    mix(m.latency_histogram->total());
    for (std::size_t b = 0; b < m.latency_histogram->bin_count(); ++b) {
      mix(m.latency_histogram->bin(b));
    }
  }
  mix(m.makespan);
  mix(m.vector_width);
  mix(m.events_processed);
  mix(m.sharing_actors);
  return hash;
}

constexpr std::uint64_t kTrialsPerCase = 13;

/// Trials that share everything but their gain seed, as one calibration
/// probe's trials do: fixed-rate arrivals at `gap`, one topology, one set of
/// firing intervals and one config.
struct Case {
  Topology topology;
  std::vector<Cycles> intervals;
  Cycles gap = 0.0;
  EnforcedSimConfig config;
  std::uint64_t seed_base = 0;
};

std::uint64_t trial_seed(const Case& c, std::uint64_t trial) {
  return dist::derive_seed({c.seed_base, 0x10C5BEEFULL, trial});
}

/// Per-trial digests of one case, each trial run alone.
std::vector<std::uint64_t> scalar_digests(const Case& c,
                                          std::uint64_t* missed = nullptr) {
  std::vector<std::uint64_t> digests;
  TrialMetrics trial;
  for (std::uint64_t t = 0; t < kTrialsPerCase; ++t) {
    arrivals::FixedRateArrivals arrivals(c.gap);
    EnforcedSimConfig config = c.config;
    config.seed = trial_seed(c, t);
    simulate_enforced_waits_into(c.topology, c.intervals, arrivals, config,
                                 trial);
    digests.push_back(metrics_digest(trial));
    if (missed != nullptr) *missed += trial.inputs_missed;
  }
  return digests;
}

/// Per-trial digests of one case run in lockstep groups of kTrialLanes, the
/// last group short; `lanes_diverged` counts groups whose lanes processed
/// different numbers of events (ended at different times).
std::vector<std::uint64_t> lockstep_digests(const Case& c,
                                            int* lanes_diverged = nullptr) {
  std::vector<std::uint64_t> digests;
  std::vector<TrialMetrics> out(kTrialLanes);
  for (std::uint64_t first = 0; first < kTrialsPerCase; first += kTrialLanes) {
    const std::size_t lanes = static_cast<std::size_t>(
        std::min<std::uint64_t>(kTrialLanes, kTrialsPerCase - first));
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < lanes; ++k) {
      seeds.push_back(trial_seed(c, first + k));
    }
    simulate_enforced_waits_lanes(c.topology, c.intervals, c.gap, c.config,
                                  seeds, std::span(out.data(), lanes));
    for (std::size_t k = 0; k < lanes; ++k) {
      digests.push_back(metrics_digest(out[k]));
      if (lanes_diverged != nullptr && k > 0 &&
          out[k].events_processed != out[0].events_processed) {
        ++*lanes_diverged;
      }
    }
  }
  return digests;
}

std::uint64_t fold(std::uint64_t hash, const std::vector<std::uint64_t>& d) {
  for (const std::uint64_t value : d) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xFF;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

constexpr std::uint64_t kFoldBasis = 1469598103934665603ULL;

/// The Table-1 chain solved at `probe` under `b`; nullopt when infeasible.
std::optional<Case> probe_case(const std::vector<double>& b,
                               const calib::Probe& probe,
                               std::uint64_t seed_base) {
  const sdf::PipelineSpec pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(pipeline,
                                             core::EnforcedWaitsConfig{b});
  auto solved = strategy.solve(probe.tau0, probe.deadline);
  if (!solved.ok()) return std::nullopt;
  Case c;
  c.topology = chain_topology(pipeline, "fire");
  c.intervals = solved.value().firing_intervals;
  c.gap = probe.tau0;
  c.config.input_count = 4000;
  c.config.deadline = probe.deadline;
  c.seed_base = seed_base;
  return c;
}

/// Every feasible default probe under `b`, in probe order.
std::vector<Case> probe_cases(const std::vector<double>& b,
                              std::uint64_t family) {
  std::vector<Case> cases;
  std::uint64_t index = 0;
  for (const calib::Probe& probe : calib::default_probes()) {
    if (auto c = probe_case(b, probe, family * 100 + index++)) {
      cases.push_back(std::move(*c));
    }
  }
  return cases;
}

std::vector<double> optimistic_b() {
  return core::EnforcedWaitsConfig::optimistic(
             blast::canonical_blast_pipeline())
      .b;
}

/// The Table-1 chain at b = (1,2,3,2), tau0 = 20, D = 1.85e5, with `edit`
/// applied to the config.
template <typename Edit>
Case chain_variant(std::uint64_t seed_base, Edit edit) {
  Case c = *probe_case({1, 2, 3, 2}, {20.0, 1.85e5}, seed_base);
  edit(c);
  return c;
}

/// A scenario DAG at `interval_scale` x its minimal intervals, fixed-rate
/// arrivals at `gap`; staggered phase offsets when `aligned`.
Case dag_case(const graph::GraphSpec& graph, double interval_scale, Cycles gap,
              Cycles deadline, bool aligned, std::uint64_t seed_base) {
  Case c;
  c.topology = graph::graph_topology(graph);
  c.intervals = graph.minimal_firing_intervals();
  for (Cycles& x : c.intervals) x *= interval_scale;
  c.gap = gap;
  c.config.input_count = 3000;
  c.config.deadline = deadline;
  if (aligned) c.config.initial_offsets = aligned_phase_offsets(c.topology);
  c.seed_base = seed_base;
  return c;
}

struct Family {
  std::string name;
  std::vector<Case> cases;
};

std::vector<Family> families() {
  std::vector<Family> out;
  out.push_back({"probes_optimistic", probe_cases(optimistic_b(), 1)});
  out.push_back({"probes_1221", probe_cases({1, 2, 2, 1}, 2)});
  out.push_back({"probes_1232", probe_cases({1, 2, 3, 2}, 3)});
  out.push_back({"tight_deadline", {chain_variant(40, [](Case& c) {
                   c.config.deadline = 6.0e3;
                 })}});
  out.push_back({"vacation_firings", {chain_variant(41, [](Case& c) {
                   c.config.charge_empty_firings = false;
                 })}});
  out.push_back({"aligned_offsets", {chain_variant(42, [](Case& c) {
                   c.config.initial_offsets = aligned_phase_offsets(c.topology);
                 })}});
  const graph::GraphSpec blast_dag = graph::branching_blast_scenario().graph;
  const graph::GraphSpec fanin_dag = graph::telemetry_fanin_scenario().graph;
  out.push_back({"dag_branching_blast",
                 {dag_case(blast_dag, 1.25, 20.0, 4500.0, false, 50),
                  dag_case(blast_dag, 1.25, 20.0, 4500.0, true, 51)}});
  out.push_back({"dag_telemetry_fanin",
                 {dag_case(fanin_dag, 1.2, 12.0, 2600.0, false, 52),
                  dag_case(fanin_dag, 1.2, 12.0, 2600.0, true, 53)}});
  return out;
}

struct Pinned {
  const char* family;
  std::size_t cases;
  std::uint64_t inputs_missed;  ///< summed over every trial of the family
  std::uint64_t digest;         ///< fold of every trial's digest, in order
};

constexpr Pinned kPinned[] = {
    {"probes_optimistic", 9, 26, 0x948208c7e7e71127},
    {"probes_1221", 9, 1, 0xdaae02a2799ea823},
    {"probes_1232", 9, 0, 0xdd4ebb1df0b54f48},
    {"tight_deadline", 1, 1150, 0x742d09005f884731},
    {"vacation_firings", 1, 0, 0xa469ae469da4b9de},
    {"aligned_offsets", 1, 0, 0x54a45a473be0ddcb},
    {"dag_branching_blast", 2, 171, 0x68f5e49ee79339c9},
    {"dag_telemetry_fanin", 2, 15834, 0x899ea430cd086282},
};

TEST(SimLockstepFixture, ScalarTrialsMatchPinnedDigests) {
  const std::vector<Family> all = families();
  ASSERT_EQ(all.size(), std::size(kPinned));
  for (std::size_t f = 0; f < all.size(); ++f) {
    SCOPED_TRACE(all[f].name);
    EXPECT_EQ(all[f].name, kPinned[f].family);
    std::uint64_t missed = 0;
    std::uint64_t digest = kFoldBasis;
    for (const Case& c : all[f].cases) {
      digest = fold(digest, scalar_digests(c, &missed));
    }
    EXPECT_EQ(all[f].cases.size(), kPinned[f].cases);
    EXPECT_EQ(missed, kPinned[f].inputs_missed);
    EXPECT_EQ(digest, kPinned[f].digest) << std::hex << "0x" << digest;
  }
}

TEST(SimLockstep, GroupsMatchLoneTrialsTrialByTrial) {
  const std::vector<Family> all = families();
  ASSERT_EQ(all.size(), std::size(kPinned));
  int lanes_diverged = 0;
  for (std::size_t f = 0; f < all.size(); ++f) {
    SCOPED_TRACE(all[f].name);
    std::uint64_t digest = kFoldBasis;
    for (const Case& c : all[f].cases) {
      const std::vector<std::uint64_t> grouped =
          lockstep_digests(c, &lanes_diverged);
      EXPECT_EQ(grouped, scalar_digests(c));
      digest = fold(digest, grouped);
    }
    EXPECT_EQ(digest, kPinned[f].digest) << std::hex << "0x" << digest;
  }
  // The cases exercise lanes that end at different times.
  EXPECT_GT(lanes_diverged, 0);
}

TEST(SimLockstep, OverlappingFiringsRunLaneByLane) {
  // An interval a hair below its service time (inside the 1e-9 tolerance)
  // lets a firing start before the previous one ends, which one shared walk
  // cannot serve; the group runs its trials one by one, with the same
  // results.
  Case c = *probe_case({1, 2, 3, 2}, {20.0, 1.85e5}, 60);
  c.intervals[2] = c.topology.nodes[2].service_time - 1e-10;
  EXPECT_EQ(lockstep_digests(c), scalar_digests(c));
}

TEST(SimLockstep, EventBudgetExhaustionThrows) {
  Case c = *probe_case({1, 2, 3, 2}, {20.0, 1.85e5}, 61);
  c.config.max_events = 1000;
  std::vector<TrialMetrics> out(kTrialLanes);
  const std::vector<std::uint64_t> seeds(kTrialLanes, 7);
  EXPECT_THROW(simulate_enforced_waits_lanes(c.topology, c.intervals, c.gap,
                                             c.config, seeds, out),
               std::logic_error);
}

TEST(SimLockstep, RejectsMalformedGroups) {
  Case c = *probe_case({1, 2, 3, 2}, {20.0, 1.85e5}, 62);
  std::vector<TrialMetrics> out(kTrialLanes + 1);
  const std::vector<std::uint64_t> seeds(kTrialLanes + 1, 7);
  EXPECT_THROW(simulate_enforced_waits_lanes(c.topology, c.intervals, c.gap,
                                             c.config, seeds, out),
               std::logic_error);
  EXPECT_THROW(simulate_enforced_waits_lanes(
                   c.topology, c.intervals, c.gap, c.config,
                   std::span(seeds.data(), 2), std::span(out.data(), 3)),
               std::logic_error);
  EXPECT_THROW(simulate_enforced_waits_lanes(c.topology, c.intervals, 0.0,
                                             c.config, std::span(seeds.data(), 2),
                                             std::span(out.data(), 2)),
               std::logic_error);
}

void expect_same_stats(const dist::RunningStats& a,
                       const dist::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_same_summary(const TrialSummary& a, const TrialSummary& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.miss_free_trials, b.miss_free_trials);
  expect_same_stats(a.active_fraction, b.active_fraction);
  expect_same_stats(a.miss_fraction, b.miss_fraction);
  expect_same_stats(a.latency_mean, b.latency_mean);
  expect_same_stats(a.latency_max, b.latency_max);
  expect_same_stats(a.latency_p99, b.latency_p99);
  expect_same_stats(a.occupancy, b.occupancy);
  EXPECT_EQ(a.max_queue_lengths, b.max_queue_lengths);
}

TEST(SimLockstep, GroupRunnerMatchesPerTrialRunner) {
  // 21 trials: two full groups and a short one. The optimistic b misses, so
  // the miss-free count and the miss fractions are not trivially 1 and 0.
  const Case c = *probe_case(optimistic_b(), {10.0, 2e4}, 63);
  constexpr std::uint64_t kTrials = 21;
  const TrialBodyFn lone = [&c](std::uint64_t trial, TrialMetrics& out) {
    arrivals::FixedRateArrivals arrivals(c.gap);
    EnforcedSimConfig config = c.config;
    config.seed = trial_seed(c, trial);
    simulate_enforced_waits_into(c.topology, c.intervals, arrivals, config,
                                 out);
  };
  const TrialGroupFn grouped = [&c](std::uint64_t first,
                                    std::span<TrialMetrics> out) {
    std::vector<std::uint64_t> seeds;
    for (std::size_t k = 0; k < out.size(); ++k) {
      seeds.push_back(trial_seed(c, first + k));
    }
    simulate_enforced_waits_lanes(c.topology, c.intervals, c.gap, c.config,
                                  seeds, out);
  };
  const TrialSummary reference = run_trials_into(lone, kTrials);
  EXPECT_LT(reference.miss_free_trials, kTrials);
  expect_same_summary(run_trial_groups_into(grouped, kTrials), reference);
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    for (const std::size_t grain : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, grain " << grain);
      expect_same_summary(run_trial_groups_into(grouped, kTrials, &pool, grain),
                          reference);
      expect_same_summary(run_trials_into(lone, kTrials, &pool, grain),
                          reference);
    }
  }
}

}  // namespace
}  // namespace ripple::sim
