#include "graph/graph_sim.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "dist/gain.hpp"
#include "graph/scenarios.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/greedy_sim.hpp"

namespace ripple::graph {
namespace {

using dist::make_bernoulli;
using dist::make_deterministic;

void expect_same_metrics(const sim::TrialMetrics& expected,
                         const sim::TrialMetrics& got) {
  ASSERT_EQ(got.nodes.size(), expected.nodes.size());
  for (std::size_t i = 0; i < expected.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].firings, expected.nodes[i].firings) << i;
    EXPECT_EQ(got.nodes[i].empty_firings, expected.nodes[i].empty_firings)
        << i;
    EXPECT_EQ(got.nodes[i].items_consumed, expected.nodes[i].items_consumed)
        << i;
    EXPECT_EQ(got.nodes[i].items_produced, expected.nodes[i].items_produced)
        << i;
    EXPECT_EQ(got.nodes[i].active_time, expected.nodes[i].active_time) << i;
    EXPECT_EQ(got.nodes[i].max_queue_length,
              expected.nodes[i].max_queue_length)
        << i;
  }
  EXPECT_EQ(got.inputs_arrived, expected.inputs_arrived);
  EXPECT_EQ(got.inputs_on_time, expected.inputs_on_time);
  EXPECT_EQ(got.inputs_missed, expected.inputs_missed);
  EXPECT_EQ(got.sink_outputs, expected.sink_outputs);
  EXPECT_EQ(got.output_latency.count(), expected.output_latency.count());
  EXPECT_EQ(got.output_latency.mean(), expected.output_latency.mean());
  EXPECT_EQ(got.output_latency.min(), expected.output_latency.min());
  EXPECT_EQ(got.output_latency.max(), expected.output_latency.max());
  EXPECT_EQ(got.makespan, expected.makespan);
  EXPECT_EQ(got.events_processed, expected.events_processed);
}

GraphSpec blast_chain_graph() {
  const sdf::PipelineSpec pipeline = blast::canonical_blast_pipeline();
  GraphBuilder builder(pipeline.name());
  builder.simd_width(pipeline.simd_width());
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    builder.add_node(pipeline.node(i).name, NodeKind::kSiso,
                     pipeline.service_time(i));
  }
  for (NodeIndex i = 0; i + 1 < pipeline.size(); ++i) {
    builder.add_edge(i, i + 1, pipeline.node(i).gain);
  }
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  return std::move(built).take();
}

/// Rate-matched branching fixture: every edge det(1), so item counts at
/// every node are exact functions of the input count.
GraphSpec flat_diamond() {
  auto built = GraphBuilder("flat_diamond")
                   .simd_width(8)
                   .add_node("src", NodeKind::kSiso, 10.0)
                   .add_node("tee", NodeKind::kSimoTee, 2.0)
                   .add_node("a", NodeKind::kSiso, 5.0)
                   .add_node("b", NodeKind::kSiso, 8.0)
                   .add_node("merge", NodeKind::kMisoElementwise, 4.0)
                   .add_node("snk", NodeKind::kSiso, 6.0)
                   .add_edge(0, 1, make_deterministic(1))
                   .add_edge(1, 2, make_deterministic(1))
                   .add_edge(1, 3, make_deterministic(1))
                   .add_edge(2, 4, make_deterministic(1))
                   .add_edge(3, 4, make_deterministic(1))
                   .add_edge(4, 5, make_deterministic(1))
                   .build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  return std::move(built).take();
}

TEST(LinearGraphSim, EnforcedTrialBitEqualToChainSim) {
  const GraphSpec graph = blast_chain_graph();
  auto lowered = graph.lower_to_pipeline();
  ASSERT_TRUE(lowered.ok());
  const sdf::PipelineSpec& pipeline = lowered.value();

  auto intervals = graph.minimal_firing_intervals();
  for (Cycles& x : intervals) x *= 1.3;

  sim::EnforcedSimConfig graph_config;
  graph_config.input_count = 4000;
  graph_config.deadline = 3.5e5;
  graph_config.seed = 17;
  graph_config.initial_offsets =
      sim::aligned_phase_offsets(graph_topology(graph));

  sim::EnforcedSimConfig chain_config;
  chain_config.input_count = 4000;
  chain_config.deadline = 3.5e5;
  chain_config.seed = 17;
  chain_config.initial_offsets = sim::aligned_phase_offsets(pipeline);

  // The aligned offsets themselves must agree on a chain.
  ASSERT_EQ(graph_config.initial_offsets.size(),
            chain_config.initial_offsets.size());
  for (std::size_t i = 0; i < chain_config.initial_offsets.size(); ++i) {
    EXPECT_EQ(graph_config.initial_offsets[i], chain_config.initial_offsets[i])
        << i;
  }

  arrivals::FixedRateArrivals graph_arrivals(50.0);
  const auto graph_trial =
      simulate_graph_enforced(graph, intervals, graph_arrivals, graph_config);
  arrivals::FixedRateArrivals chain_arrivals(50.0);
  const auto chain_trial = sim::simulate_enforced_waits(
      pipeline, intervals, chain_arrivals, chain_config);
  expect_same_metrics(chain_trial, graph_trial);
}

TEST(LinearGraphSim, GreedyTrialBitEqualToChainSim) {
  const GraphSpec graph = blast_chain_graph();
  auto lowered = graph.lower_to_pipeline();
  ASSERT_TRUE(lowered.ok());

  sim::GreedySimConfig graph_config;
  graph_config.input_count = 3000;
  graph_config.deadline = 3.5e5;
  graph_config.seed = 5;
  graph_config.min_batch = 4;

  sim::GreedySimConfig chain_config;
  chain_config.input_count = 3000;
  chain_config.deadline = 3.5e5;
  chain_config.seed = 5;
  chain_config.min_batch = 4;

  arrivals::FixedRateArrivals graph_arrivals(40.0);
  const auto graph_trial =
      simulate_graph_greedy(graph, graph_arrivals, graph_config);
  arrivals::FixedRateArrivals chain_arrivals(40.0);
  const auto chain_trial = sim::simulate_greedy_throughput(
      lowered.value(), chain_arrivals, chain_config);
  expect_same_metrics(chain_trial, graph_trial);
}

/// The Table-1 chain with its graph indices scrambled: the sink is node 0
/// and the source node 2. Returns the graph and, per chain position p, the
/// graph index of pipeline node p.
std::pair<GraphSpec, std::vector<NodeIndex>> scrambled_blast_chain() {
  const sdf::PipelineSpec pipeline = blast::canonical_blast_pipeline();
  const std::vector<NodeIndex> chain_order = {2, 3, 1, 0};
  std::vector<NodeIndex> position(chain_order.size());
  for (NodeIndex p = 0; p < chain_order.size(); ++p) {
    position[chain_order[p]] = p;
  }
  GraphBuilder builder("scrambled_blast");
  builder.simd_width(pipeline.simd_width());
  for (const NodeIndex p : position) {
    builder.add_node(pipeline.node(p).name, NodeKind::kSiso,
                     pipeline.service_time(p));
  }
  for (NodeIndex p = 0; p + 1 < pipeline.size(); ++p) {
    builder.add_edge(chain_order[p], chain_order[p + 1], pipeline.node(p).gain);
  }
  auto built = builder.build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  return {std::move(built).take(), chain_order};
}

/// Graph-indexed metrics put back in chain order.
sim::TrialMetrics in_chain_order(sim::TrialMetrics metrics,
                                 const std::vector<NodeIndex>& chain_order) {
  std::vector<sim::NodeMetrics> nodes(chain_order.size());
  for (std::size_t p = 0; p < chain_order.size(); ++p) {
    nodes[p] = metrics.nodes[chain_order[p]];
  }
  metrics.nodes = std::move(nodes);
  return metrics;
}

TEST(LinearGraphSim, OutOfPathOrderIndicesMatchChainSim) {
  const auto [graph, chain_order] = scrambled_blast_chain();
  ASSERT_TRUE(graph.is_linear());
  ASSERT_EQ(graph.sink(), 0u);
  auto lowered = graph.lower_to_pipeline();
  ASSERT_TRUE(lowered.ok());
  const sdf::PipelineSpec& pipeline = lowered.value();

  std::vector<Cycles> graph_intervals = graph.minimal_firing_intervals();
  for (Cycles& x : graph_intervals) x *= 1.3;
  std::vector<Cycles> chain_intervals(chain_order.size());
  for (std::size_t p = 0; p < chain_order.size(); ++p) {
    chain_intervals[p] = graph_intervals[chain_order[p]];
  }

  for (const bool aligned : {false, true}) {
    sim::EnforcedSimConfig chain_config;
    chain_config.input_count = 3000;
    chain_config.deadline = 3.5e5;
    chain_config.seed = 23;
    chain_config.charge_empty_firings = !aligned;
    sim::EnforcedSimConfig graph_config = chain_config;
    if (aligned) {
      chain_config.initial_offsets = sim::aligned_phase_offsets(pipeline);
      graph_config.initial_offsets =
          sim::aligned_phase_offsets(graph_topology(graph));
      for (std::size_t p = 0; p < chain_order.size(); ++p) {
        EXPECT_EQ(graph_config.initial_offsets[chain_order[p]],
                  chain_config.initial_offsets[p])
            << p;
      }
    }
    arrivals::PoissonArrivals chain_arrivals(50.0);
    const auto chain_trial = sim::simulate_enforced_waits(
        pipeline, chain_intervals, chain_arrivals, chain_config);
    arrivals::PoissonArrivals graph_arrivals(50.0);
    const auto graph_trial = simulate_graph_enforced(
        graph, graph_intervals, graph_arrivals, graph_config);
    SCOPED_TRACE(aligned);
    expect_same_metrics(chain_trial, in_chain_order(graph_trial, chain_order));
  }

  for (const std::uint32_t min_batch : {1u, pipeline.simd_width()}) {
    sim::GreedySimConfig config;
    config.input_count = 3000;
    config.deadline = 3.5e5;
    config.seed = 29;
    config.min_batch = min_batch;
    arrivals::PoissonArrivals chain_arrivals(40.0);
    const auto chain_trial =
        sim::simulate_greedy_throughput(pipeline, chain_arrivals, config);
    arrivals::PoissonArrivals graph_arrivals(40.0);
    const auto graph_trial = simulate_graph_greedy(graph, graph_arrivals, config);
    SCOPED_TRACE(min_batch);
    expect_same_metrics(chain_trial, in_chain_order(graph_trial, chain_order));
  }
}

TEST(DagEnforced, FlatDiamondConservesItemsExactly) {
  const GraphSpec graph = flat_diamond();
  const auto intervals = graph.minimal_firing_intervals();
  sim::EnforcedSimConfig config;
  config.input_count = 500;
  config.seed = 3;
  arrivals::FixedRateArrivals arrivals(2.0);
  const auto trial = simulate_graph_enforced(graph, intervals, arrivals, config);

  ASSERT_EQ(trial.nodes.size(), 6u);
  const std::uint64_t n = 500;
  EXPECT_EQ(trial.inputs_arrived, n);
  EXPECT_EQ(trial.sink_outputs, n);
  EXPECT_EQ(trial.nodes[0].items_consumed, n);
  EXPECT_EQ(trial.nodes[0].items_produced, n);
  // Tee replicates onto both out-edges.
  EXPECT_EQ(trial.nodes[1].items_consumed, n);
  EXPECT_EQ(trial.nodes[1].items_produced, 2 * n);
  EXPECT_EQ(trial.nodes[2].items_consumed, n);
  EXPECT_EQ(trial.nodes[3].items_consumed, n);
  // Merge consumes one matched item per in-edge, emits one combined item.
  EXPECT_EQ(trial.nodes[4].items_consumed, 2 * n);
  EXPECT_EQ(trial.nodes[4].items_produced, n);
  EXPECT_EQ(trial.nodes[5].items_consumed, n);
  EXPECT_EQ(trial.output_latency.count(), n);
}

TEST(DagEnforced, TelemetryFaninConservesPerStream) {
  const GraphSpec graph = telemetry_fanin_scenario().graph;
  const auto intervals = graph.minimal_firing_intervals();
  sim::EnforcedSimConfig config;
  config.input_count = 300;
  config.seed = 11;
  arrivals::FixedRateArrivals arrivals(5.0);
  const auto trial = simulate_graph_enforced(graph, intervals, arrivals, config);

  const std::uint64_t n = 300;
  EXPECT_EQ(trial.inputs_arrived, n);
  EXPECT_EQ(trial.sink_outputs, n);
  // fan (node 1) tees into three parsers.
  EXPECT_EQ(trial.nodes[1].items_produced, 3 * n);
  // align (node 5) is the synchronizer: pure forwarding, three streams.
  EXPECT_EQ(trial.nodes[5].items_consumed, 3 * n);
  EXPECT_EQ(trial.nodes[5].items_produced, 3 * n);
  // fuse (node 9) merges the three normalized streams elementwise.
  EXPECT_EQ(trial.nodes[9].items_consumed, 3 * n);
  EXPECT_EQ(trial.nodes[9].items_produced, n);
}

TEST(DagEnforced, SameSeedReproducesBitIdenticalTrials) {
  auto built = GraphBuilder("stochastic_diamond")
                   .simd_width(8)
                   .add_node("src", NodeKind::kSiso, 10.0)
                   .add_node("tee", NodeKind::kSimoTee, 2.0)
                   .add_node("a", NodeKind::kSiso, 5.0)
                   .add_node("b", NodeKind::kSiso, 8.0)
                   .add_node("merge", NodeKind::kMisoElementwise, 4.0)
                   .add_node("snk", NodeKind::kSiso, 6.0)
                   .add_edge(0, 1, make_bernoulli(0.5))
                   .add_edge(1, 2, make_deterministic(1))
                   .add_edge(1, 3, make_deterministic(1))
                   .add_edge(2, 4, make_deterministic(1))
                   .add_edge(3, 4, make_deterministic(1))
                   .add_edge(4, 5, make_deterministic(1))
                   .build();
  ASSERT_TRUE(built.ok());
  const GraphSpec graph = std::move(built).take();
  const auto intervals = graph.minimal_firing_intervals();

  sim::EnforcedSimConfig config;
  config.input_count = 2000;
  config.seed = 42;
  arrivals::FixedRateArrivals first_arrivals(2.0);
  const auto first =
      simulate_graph_enforced(graph, intervals, first_arrivals, config);
  arrivals::FixedRateArrivals second_arrivals(2.0);
  const auto second =
      simulate_graph_enforced(graph, intervals, second_arrivals, config);
  expect_same_metrics(first, second);

  // The bernoulli filter keeps about half the stream.
  EXPECT_NEAR(static_cast<double>(first.sink_outputs), 1000.0, 120.0);
  // Post-filter the branches stay rate-matched: merge consumed twice what it
  // produced.
  EXPECT_EQ(first.nodes[4].items_consumed, 2 * first.nodes[4].items_produced);
}

TEST(DagGreedy, FlatDiamondDrainsAndConserves) {
  const GraphSpec graph = flat_diamond();
  sim::GreedySimConfig config;
  config.input_count = 400;
  config.seed = 9;
  arrivals::FixedRateArrivals arrivals(3.0);
  const auto trial = simulate_graph_greedy(graph, arrivals, config);

  const std::uint64_t n = 400;
  EXPECT_EQ(trial.inputs_arrived, n);
  EXPECT_EQ(trial.sink_outputs, n);
  EXPECT_EQ(trial.nodes[1].items_produced, 2 * n);
  EXPECT_EQ(trial.nodes[4].items_consumed, 2 * n);
  EXPECT_EQ(trial.nodes[4].items_produced, n);
}

TEST(Validation, MalformedInputsThrow) {
  const GraphSpec graph = flat_diamond();
  sim::EnforcedSimConfig config;
  config.input_count = 10;
  arrivals::FixedRateArrivals arrivals(2.0);

  std::vector<Cycles> short_intervals{10.0, 2.0};
  EXPECT_THROW(
      simulate_graph_enforced(graph, short_intervals, arrivals, config),
      std::logic_error);

  auto below_service = graph.minimal_firing_intervals();
  below_service[3] = 1.0;  // b's service time is 8
  EXPECT_THROW(
      simulate_graph_enforced(graph, below_service, arrivals, config),
      std::logic_error);
}

}  // namespace
}  // namespace ripple::graph
