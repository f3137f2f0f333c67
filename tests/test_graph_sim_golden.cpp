// Golden-metrics pin for the DAG simulators: the full TrialMetrics of
// simulate_graph_enforced and simulate_graph_greedy on both scenario DAGs,
// two seeds each. The enforced cases mix fixed and Poisson arrivals, zero
// and staggered phase offsets, and charged and vacation empty firings; the
// greedy cases run min_batch 1 and v. Any change to event order, RNG
// consumption, routing or metric accumulation moves a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "graph/graph_sim.hpp"
#include "graph/scenarios.hpp"

namespace ripple::graph {
namespace {

using EnforcedConfig = sim::EnforcedSimConfig;
using GreedyConfig = sim::GreedySimConfig;

/// FNV-1a over every TrialMetrics field: per-node counters, stream counts,
/// latency moments, every histogram bin, makespan and the event count.
std::uint64_t metrics_digest(const sim::TrialMetrics& m) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const auto& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(value); ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  mix(m.nodes.size());
  for (const sim::NodeMetrics& node : m.nodes) {
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

/// Staggered first firings: each node starts just after its latest
/// predecessor's first delivery could land.
std::vector<Cycles> staggered_offsets(const GraphSpec& graph) {
  std::vector<Cycles> offsets(graph.size(), 0.0);
  for (const NodeIndex u : graph.topo_order()) {
    for (const EdgeIndex e : graph.in_edges(u)) {
      const NodeIndex from = graph.edge(e).from;
      offsets[u] = std::max(offsets[u],
                            offsets[from] + graph.service_time(from) + 1e-6);
    }
  }
  return offsets;
}

std::unique_ptr<arrivals::ArrivalProcess> make_arrivals(bool poisson,
                                                        Cycles gap) {
  if (poisson) return std::make_unique<arrivals::PoissonArrivals>(gap);
  return std::make_unique<arrivals::FixedRateArrivals>(gap);
}

struct Pinned {
  std::uint64_t digest;
  std::uint64_t sink_outputs;
  std::uint64_t inputs_missed;
  std::uint64_t events_processed;
};

void expect_pinned(const sim::TrialMetrics& trial, const Pinned& pinned) {
  EXPECT_EQ(trial.sink_outputs, pinned.sink_outputs);
  EXPECT_EQ(trial.inputs_missed, pinned.inputs_missed);
  EXPECT_EQ(trial.events_processed, pinned.events_processed);
  EXPECT_EQ(metrics_digest(trial), pinned.digest)
      << std::hex << "0x" << metrics_digest(trial);
}

struct EnforcedCase {
  bool poisson;
  bool staggered;
  bool charge_empty_firings;
};

constexpr EnforcedCase kEnforcedCases[] = {
    {false, false, true},
    {true, true, true},
    {true, false, false},
    {false, true, false},
};
constexpr std::uint64_t kSeeds[] = {3, 11};

/// Runs every enforced case at both seeds, in (case, seed) order.
void check_enforced(const GraphSpec& graph, double interval_scale,
                    Cycles gap, Cycles deadline,
                    const std::vector<Pinned>& pinned) {
  std::vector<Cycles> intervals = graph.minimal_firing_intervals();
  for (Cycles& x : intervals) x *= interval_scale;
  ASSERT_EQ(pinned.size(), std::size(kEnforcedCases) * std::size(kSeeds));
  std::size_t k = 0;
  for (const EnforcedCase& c : kEnforcedCases) {
    for (const std::uint64_t seed : kSeeds) {
      EnforcedConfig config;
      config.input_count = 3000;
      config.deadline = deadline;
      config.seed = seed;
      config.charge_empty_firings = c.charge_empty_firings;
      if (c.staggered) config.initial_offsets = staggered_offsets(graph);
      auto arrivals = make_arrivals(c.poisson, gap);
      SCOPED_TRACE(k);
      expect_pinned(simulate_graph_enforced(graph, intervals, *arrivals, config),
                    pinned[k++]);
    }
  }
}

/// Runs min_batch 1 and v at both seeds, in (min_batch, seed) order, on
/// fixed and Poisson arrivals alternately.
void check_greedy(const GraphSpec& graph, Cycles gap, Cycles deadline,
                  const std::vector<Pinned>& pinned) {
  const std::uint32_t batches[] = {1, graph.simd_width()};
  ASSERT_EQ(pinned.size(), std::size(batches) * std::size(kSeeds));
  std::size_t k = 0;
  for (const std::uint32_t min_batch : batches) {
    for (const std::uint64_t seed : kSeeds) {
      GreedyConfig config;
      config.input_count = 3000;
      config.deadline = deadline;
      config.seed = seed;
      config.min_batch = min_batch;
      auto arrivals = make_arrivals(k % 2 == 1, gap);
      SCOPED_TRACE(k);
      expect_pinned(simulate_graph_greedy(graph, *arrivals, config),
                    pinned[k++]);
    }
  }
}

TEST(GraphSimGolden, BranchingBlastEnforced) {
  check_enforced(branching_blast_scenario().graph, 1.25, 20.0, 4500.0,
                 {
                     {0x9647a97318caea9d, 1247, 9, 4320},
                     {0xb1f943e946d08bb2, 1267, 17, 4320},
                     {0x25064fbaf3786d33, 1203, 0, 4273},
                     {0x5c46910b3dc446e5, 1266, 0, 4297},
                     {0xfbbd44a1e5189622, 1203, 21, 4299},
                     {0xaa61a5b0b8e7501c, 1266, 17, 4342},
                     {0x907910664b4663e2, 1247, 0, 4296},
                     {0xf3d164669b9f2c6f, 1267, 0, 4296},
                 });
}

TEST(GraphSimGolden, TelemetryFaninEnforced) {
  check_enforced(telemetry_fanin_scenario().graph, 1.2, 12.0, 2600.0,
                 {
                     {0x8db39b9329b44c5c, 3000, 1218, 5347},
                     {0x8db39b9329b44c5c, 3000, 1218, 5347},
                     {0xcfa6e793e0cba54d, 3000, 0, 5244},
                     {0x4c3d276c4f4595, 3000, 0, 5289},
                     {0xf83031fd15a043b1, 3000, 1292, 5301},
                     {0x662fad481985aab6, 3000, 1264, 5347},
                     {0xf9f39bf07c9b4d68, 3000, 0, 5289},
                     {0xf9f39bf07c9b4d68, 3000, 0, 5289},
                 });
}

TEST(GraphSimGolden, BranchingBlastGreedy) {
  check_greedy(branching_blast_scenario().graph, 20.0, 4500.0,
               {
                   {0xda20c580cb2a20ae, 1247, 0, 1044},
                   {0x411b042590d7fd27, 1268, 0, 1046},
                   {0x5fced3c837a27043, 1247, 13, 147},
                   {0x998aa94b4fe628f7, 1259, 14, 147},
               });
}

TEST(GraphSimGolden, TelemetryFaninGreedy) {
  check_greedy(telemetry_fanin_scenario().graph, 12.0, 2600.0,
               {
                   {0xb33f1344964e8824, 3000, 0, 2793},
                   {0xd96a8dfc9b9baae9, 3000, 0, 2761},
                   {0x692dd1cc0623baef, 3000, 0, 517},
                   {0xdd9b106fe7647eea, 3000, 0, 517},
               });
}

}  // namespace
}  // namespace ripple::graph
