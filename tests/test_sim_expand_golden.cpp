// Golden-metrics pin for the simulators' multi-output routing: chains whose
// edges include deterministic(3), an empirical gain with up to 3 outputs per
// input, and the degenerate bernoulli(0) and bernoulli(1). The other goldens
// only see Bernoulli, censored Poisson and deterministic(1) edges, so this is
// the pin on how a lane expands into several outputs, and on a gain that can
// never produce one. The full TrialMetrics of the enforced sim (fixed and
// Poisson arrivals, zero and aligned offsets) and of the greedy sim
// (min_batch 1 and v) are digested on two seeds each.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/greedy_sim.hpp"

namespace ripple::sim {
namespace {

/// FNV-1a over every TrialMetrics field: per-node counters, stream counts,
/// latency moments, every histogram bin, makespan and the event count (the
/// same fields as tests/test_graph_sim_golden.cpp).
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

constexpr Cycles kGap = 10.0;
constexpr Cycles kDeadline = 250.0;
constexpr std::uint32_t kWidth = 8;

/// Source -det(3)-> expand -empirical(0..3)-> `third` -bernoulli(0.5)->
/// filter -> sink. With `third` = bernoulli(1) every stage carries items;
/// with bernoulli(0) the last two nodes only ever fire empty.
sdf::PipelineSpec expand_chain(double third_probability) {
  auto spec =
      sdf::PipelineBuilder("expand_chain")
          .simd_width(kWidth)
          .add_node("source", 40.0, dist::make_deterministic(3))
          .add_node("expand", 15.0,
                    std::make_shared<const dist::EmpiricalGain>(
                        std::vector<double>{0.3, 0.2, 0.1, 0.4}))
          .add_node("third", 10.0, dist::make_bernoulli(third_probability))
          .add_node("filter", 12.0, dist::make_bernoulli(0.5))
          .add_node("sink", 20.0, nullptr)
          .build();
  return spec.value();
}

std::vector<Cycles> intervals_of(const sdf::PipelineSpec& pipeline) {
  std::vector<Cycles> intervals;
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    intervals.push_back(pipeline.service_time(i) * 1.2);
  }
  return intervals;
}

std::unique_ptr<arrivals::ArrivalProcess> make_arrivals(bool poisson) {
  if (poisson) return std::make_unique<arrivals::PoissonArrivals>(kGap);
  return std::make_unique<arrivals::FixedRateArrivals>(kGap);
}

struct Pinned {
  std::uint64_t digest;
  std::uint64_t sink_outputs;
  std::uint64_t inputs_missed;
  std::uint64_t events_processed;
};

void expect_pinned(const TrialMetrics& trial, const Pinned& pinned) {
  EXPECT_EQ(trial.sink_outputs, pinned.sink_outputs);
  EXPECT_EQ(trial.inputs_missed, pinned.inputs_missed);
  EXPECT_EQ(trial.events_processed, pinned.events_processed);
  EXPECT_EQ(metrics_digest(trial), pinned.digest)
      << std::hex << "0x" << metrics_digest(trial);
}

constexpr std::uint64_t kSeeds[] = {5, 23};

/// (poisson, aligned offsets) per enforced case; every case at both seeds.
constexpr bool kEnforcedCases[][2] = {
    {false, false},
    {true, true},
};

void check_enforced(const sdf::PipelineSpec& pipeline,
                    const std::vector<Pinned>& pinned) {
  const std::vector<Cycles> intervals = intervals_of(pipeline);
  ASSERT_EQ(pinned.size(), std::size(kEnforcedCases) * std::size(kSeeds));
  std::size_t k = 0;
  for (const auto& c : kEnforcedCases) {
    for (const std::uint64_t seed : kSeeds) {
      EnforcedSimConfig config;
      config.input_count = 3000;
      config.deadline = kDeadline;
      config.seed = seed;
      if (c[1]) config.initial_offsets = aligned_phase_offsets(pipeline);
      auto arrivals = make_arrivals(c[0]);
      SCOPED_TRACE(k);
      expect_pinned(
          simulate_enforced_waits(pipeline, intervals, *arrivals, config),
          pinned[k++]);
    }
  }
}

/// min_batch 1 and v at both seeds, fixed and Poisson arrivals alternately.
void check_greedy(const sdf::PipelineSpec& pipeline,
                  const std::vector<Pinned>& pinned) {
  const std::uint32_t batches[] = {1, kWidth};
  ASSERT_EQ(pinned.size(), std::size(batches) * std::size(kSeeds));
  std::size_t k = 0;
  for (const std::uint32_t min_batch : batches) {
    for (const std::uint64_t seed : kSeeds) {
      GreedySimConfig config;
      config.input_count = 3000;
      config.deadline = kDeadline;
      config.seed = seed;
      config.min_batch = min_batch;
      auto arrivals = make_arrivals(k % 2 == 1);
      SCOPED_TRACE(k);
      expect_pinned(simulate_greedy_throughput(pipeline, *arrivals, config),
                    pinned[k++]);
    }
  }
}

TEST(ExpandGolden, EnforcedEveryStageCarries) {
  check_enforced(expand_chain(1.0),
                 {
                     {0x487b20821e3e707b, 7139, 0, 18349},
                     {0x7d992ad7e8b98362, 7103, 0, 18326},
                     {0x31b468dbcd3857b6, 7086, 280, 18123},
                     {0xf16c3c4e08581964, 7288, 352, 18264},
                 });
}

TEST(ExpandGolden, EnforcedZeroGainStarvesTheTail) {
  check_enforced(expand_chain(0.0),
                 {
                     {0xd2fddf057666e73a, 0, 0, 15129},
                     {0x4c9be52a8639cd26, 0, 0, 15149},
                     {0x220bc1e816744aad, 0, 0, 15462},
                     {0xe3338aff247d935a, 0, 0, 15178},
                 });
}

TEST(ExpandGolden, GreedyEveryStageCarries) {
  check_greedy(expand_chain(1.0),
               {
                   {0x54b9a040dc4b9b6e, 7208, 0, 8611},
                   {0xfcb850971e76ead8, 7261, 0, 8554},
                   {0xa34f295f78ba7364, 7186, 0, 6019},
                   {0xd741c4634ed94e4e, 7306, 0, 6056},
               });
}

TEST(ExpandGolden, GreedyZeroGainStarvesTheTail) {
  check_greedy(expand_chain(0.0),
               {
                   {0xd4f8a41d7d1238a5, 0, 0, 7202},
                   {0x41409d0820cb9caa, 0, 0, 6460},
                   {0x36fbac0cd010c9c6, 0, 0, 3333},
                   {0x14f942587245f391, 0, 0, 3286},
               });
}

}  // namespace
}  // namespace ripple::sim
