#include "graph/graph_executor.hpp"

#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/gain.hpp"
#include "graph/scenarios.hpp"

namespace ripple::graph {
namespace {

using dist::make_deterministic;

void expect_same_base(const sim::TrialMetrics& expected,
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

void expect_same_execution(const runtime::ExecutionMetrics& expected,
                           const runtime::ExecutionMetrics& got) {
  expect_same_base(expected.base, got.base);
  ASSERT_EQ(got.results.size(), expected.results.size());
  for (std::size_t i = 0; i < expected.results.size(); ++i) {
    EXPECT_EQ(std::any_cast<std::uint64_t>(got.results[i]),
              std::any_cast<std::uint64_t>(expected.results[i]))
        << i;
  }
}

GraphExecutorConfig scenario_config(const GraphSpec& graph,
                                    double interval_scale, Cycles input_gap,
                                    Cycles deadline = 0.0) {
  GraphExecutorConfig config;
  config.firing_intervals = graph.minimal_firing_intervals();
  for (Cycles& x : config.firing_intervals) x *= interval_scale;
  config.input_gap = input_gap;
  config.deadline = deadline;
  config.max_collected_results = 1 << 20;
  return config;
}

TEST(Golden, BranchingBlastVectorMatchesReference) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 20.0);
  const GraphExecutor executor(scenario.graph, scenario.stages);

  auto vector_run = executor.run(scenario_inputs(400), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(400), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());

  // The probe filter actually drops part of the stream, and both extension
  // branches contribute to every surviving rescore tuple.
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_GT(base.sink_outputs, 0u);
  EXPECT_LT(base.sink_outputs, 400u);
  EXPECT_EQ(base.nodes[1].items_produced, 2 * base.nodes[1].items_consumed);
  EXPECT_EQ(base.nodes[4].items_consumed, 2 * base.nodes[4].items_produced);
}

TEST(Golden, TelemetryFaninVectorMatchesReference) {
  GraphScenario scenario = telemetry_fanin_scenario();
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.2, 12.0);
  const GraphExecutor executor(scenario.graph, scenario.stages);

  auto vector_run = executor.run(scenario_inputs(300, 7), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(300, 7), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());

  // All-deterministic stages: every input survives to the sink, and the
  // synchronizer forwards exactly what it consumes.
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_EQ(base.sink_outputs, 300u);
  EXPECT_EQ(base.nodes[5].items_consumed, base.nodes[5].items_produced);
  EXPECT_EQ(base.nodes[5].items_consumed, 900u);
}

/// Small linear chain with real per-item stages, for the linear-graph tests.
GraphScenario linear_scenario() {
  auto built = GraphBuilder("linear_hash")
                   .simd_width(16)
                   .add_node("scale", NodeKind::kSiso, 40.0)
                   .add_node("filter", NodeKind::kSiso, 30.0)
                   .add_node("emit", NodeKind::kSiso, 20.0)
                   .add_edge(0, 1, make_deterministic(1))
                   .add_edge(1, 2, make_deterministic(1))
                   .build();
  EXPECT_TRUE(built.ok()) << built.error().message;
  GraphScenario scenario{std::move(built).take(), {}};
  scenario.stages = {
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        out.push_back(std::any_cast<std::uint64_t>(in[0]) * 2654435761u);
      },
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        const auto x = std::any_cast<std::uint64_t>(in[0]);
        if ((x & 3u) != 0u) out.push_back(x);
      },
      [](std::vector<Item>&& in, std::vector<Item>& out) {
        out.push_back(std::any_cast<std::uint64_t>(in[0]) ^ 0xabcdu);
      },
  };
  return scenario;
}

TEST(LinearDelegation, ChainRunMatchesReferenceOracle) {
  GraphScenario scenario = linear_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);

  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.5, 5.0, /*deadline=*/5000.0);
  // A linear graph is a chain-shaped topology: run() and the per-item
  // oracle must agree on it as on any DAG.
  auto vector_run = executor.run(scenario_inputs(250, 3), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(250, 3), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), vector_run.value());
}

TEST(LinearGraph, OutOfPathOrderIndicesMatchChainAndOracle) {
  // The linear_scenario chain with its nodes added sink-first, so graph
  // indices run against the path: scale (2) -> filter (1) -> emit (0).
  auto built = GraphBuilder("linear_reversed")
                   .simd_width(16)
                   .add_node("emit", NodeKind::kSiso, 20.0)
                   .add_node("filter", NodeKind::kSiso, 30.0)
                   .add_node("scale", NodeKind::kSiso, 40.0)
                   .add_edge(2, 1, make_deterministic(1))
                   .add_edge(1, 0, make_deterministic(1))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error().message;
  const GraphSpec graph = std::move(built).take();
  const GraphScenario forward = linear_scenario();
  const std::vector<GraphStageFn> stages = {
      forward.stages[2], forward.stages[1], forward.stages[0]};
  const GraphExecutor executor(graph, stages);

  const GraphExecutorConfig config =
      scenario_config(graph, 1.5, 5.0, /*deadline=*/150.0);
  auto run = executor.run(scenario_inputs(250, 3), config);
  ASSERT_TRUE(run.ok()) << run.error().message;
  auto reference = executor.run_reference(scenario_inputs(250, 3), config);
  ASSERT_TRUE(reference.ok()) << reference.error().message;
  expect_same_execution(reference.value(), run.value());
  EXPECT_GT(run.value().base.inputs_missed, 0u);
  EXPECT_LT(run.value().base.inputs_missed, 250u);

  // The lowered chain, position p = graph node path[p], must agree too.
  const std::vector<NodeIndex>& path = graph.topo_order();
  ASSERT_EQ(path, (std::vector<NodeIndex>{2, 1, 0}));
  auto lowered = graph.lower_to_pipeline();
  ASSERT_TRUE(lowered.ok()) << lowered.error().message;
  std::vector<runtime::StageFn> chain_stages;
  runtime::ExecutorConfig chain_config = config;
  for (std::size_t p = 0; p < path.size(); ++p) {
    ASSERT_EQ(lowered.value().node(p).name, graph.node(path[p]).name);
    chain_stages.push_back(
        [fn = stages[path[p]]](Item&& input, std::vector<Item>& outputs) {
          std::vector<Item> lane_inputs;
          lane_inputs.push_back(std::move(input));
          fn(std::move(lane_inputs), outputs);
        });
    chain_config.firing_intervals[p] = config.firing_intervals[path[p]];
  }
  const runtime::PipelineExecutor chain(std::move(lowered).take(),
                                        std::move(chain_stages));
  auto chain_run = chain.run(scenario_inputs(250, 3), chain_config);
  ASSERT_TRUE(chain_run.ok()) << chain_run.error().message;
  runtime::ExecutionMetrics by_graph_index = std::move(chain_run).take();
  std::vector<sim::NodeMetrics> nodes(path.size());
  for (std::size_t p = 0; p < path.size(); ++p) {
    nodes[path[p]] = by_graph_index.base.nodes[p];
  }
  by_graph_index.base.nodes = std::move(nodes);
  expect_same_execution(by_graph_index, run.value());
}

/// With empty firings charged, every event an engine pops is a fire-start
/// (one per firing) or the fire-end of a consuming firing.
std::uint64_t fire_events(const sim::TrialMetrics& base) {
  std::uint64_t events = 0;
  for (const sim::NodeMetrics& node : base.nodes) {
    events += 2 * node.firings - node.empty_firings;
  }
  return events;
}

TEST(EventCount, BothEnginesCountEveryPoppedFireEvent) {
  for (GraphScenario scenario :
       {branching_blast_scenario(), telemetry_fanin_scenario()}) {
    const GraphExecutorConfig config =
        scenario_config(scenario.graph, 1.25, 20.0);
    const GraphExecutor executor(scenario.graph, scenario.stages);
    auto run = executor.run(scenario_inputs(300), config);
    ASSERT_TRUE(run.ok()) << run.error().message;
    auto reference = executor.run_reference(scenario_inputs(300), config);
    ASSERT_TRUE(reference.ok()) << reference.error().message;
    const sim::TrialMetrics& base = run.value().base;
    EXPECT_GT(base.events_processed, 0u);
    EXPECT_EQ(base.events_processed, fire_events(base));
    EXPECT_EQ(reference.value().base.events_processed, base.events_processed);
  }
}

TEST(Determinism, RandomizedTrialsMatchReference) {
  // 12 randomized trials over both branching scenarios: vary the input seed,
  // arrival spacing, and interval slack, and require the vector DAG engine
  // to reproduce the per-item oracle bit for bit.
  for (std::uint64_t trial_seed = 0; trial_seed < 12; ++trial_seed) {
    GraphScenario scenario = (trial_seed % 2 == 0)
                                 ? branching_blast_scenario()
                                 : telemetry_fanin_scenario();
    const double scale = 1.1 + 0.1 * static_cast<double>(trial_seed % 5);
    const Cycles gap = 6.0 + 3.0 * static_cast<double>(trial_seed % 4);
    const GraphExecutorConfig config =
        scenario_config(scenario.graph, scale, gap);
    const std::size_t count = 96 + 16 * (trial_seed % 3);
    const GraphExecutor executor(scenario.graph, scenario.stages);

    auto reference =
        executor.run_reference(scenario_inputs(count, trial_seed), config);
    ASSERT_TRUE(reference.ok())
        << trial_seed << ": " << reference.error().message;
    auto vector_run = executor.run(scenario_inputs(count, trial_seed), config);
    ASSERT_TRUE(vector_run.ok())
        << trial_seed << ": " << vector_run.error().message;
    expect_same_execution(reference.value(), vector_run.value());
  }
}

TEST(Errors, StageExceptionNamesTheNode) {
  GraphScenario scenario = branching_blast_scenario();
  // Poison the thorough-extension stage (node 3).
  scenario.stages[3] = [](std::vector<Item>&&, std::vector<Item>&) {
    throw std::runtime_error("boom");
  };
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 20.0);

  auto vector_run = executor.run(scenario_inputs(64), config);
  ASSERT_FALSE(vector_run.ok());
  EXPECT_EQ(vector_run.error().code, "stage_exception");
  EXPECT_NE(vector_run.error().message.find("ext_thorough"),
            std::string::npos);

  auto reference = executor.run_reference(scenario_inputs(64), config);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.error().code, "stage_exception");
  EXPECT_EQ(reference.error().message, vector_run.error().message);
}

TEST(Errors, BadConfigsRejectedIdenticallyByBothEngines) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);

  GraphExecutorConfig wrong_count;
  wrong_count.firing_intervals = {100.0, 100.0};
  auto a = executor.run(scenario_inputs(4), wrong_count);
  auto b = executor.run_reference(scenario_inputs(4), wrong_count);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.error().code, "bad_config");
  EXPECT_EQ(a.error().message, b.error().message);

  GraphExecutorConfig below = scenario_config(scenario.graph, 1.25, 20.0);
  below.firing_intervals[3] = 1.0;  // below ext_thorough's service time
  auto c = executor.run(scenario_inputs(4), below);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error().code, "bad_config");
  EXPECT_NE(c.error().message.find("ext_thorough"), std::string::npos);

  GraphExecutorConfig empty_inputs = scenario_config(scenario.graph, 1.25, 20.0);
  auto d = executor.run({}, empty_inputs);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().code, "bad_config");
}

TEST(Errors, EventBudgetStopsRunawayRuns) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  GraphExecutorConfig config = scenario_config(scenario.graph, 1.25, 20.0);
  config.max_events = 3;
  auto run = executor.run(scenario_inputs(64), config);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, "event_budget");
  auto reference = executor.run_reference(scenario_inputs(64), config);
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(reference.error().code, "event_budget");
}

TEST(Deadline, MissAccountingAgreesBetweenEngines) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  // A deadline tight enough that late roots exist but not so tight that
  // everything misses.
  const GraphExecutorConfig config =
      scenario_config(scenario.graph, 1.25, 4.0, /*deadline=*/9000.0);
  auto vector_run = executor.run(scenario_inputs(256, 5), config);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(256, 5), config);
  ASSERT_TRUE(reference.ok());
  expect_same_execution(reference.value(), vector_run.value());
  const sim::TrialMetrics& base = vector_run.value().base;
  EXPECT_EQ(base.inputs_arrived, 256u);
  EXPECT_LE(base.inputs_on_time + base.inputs_missed, base.inputs_arrived);
}

TEST(Construction, StageRegistrationRulesEnforced) {
  GraphScenario scenario = telemetry_fanin_scenario();
  // Too few stages.
  std::vector<GraphStageFn> short_stages(scenario.stages.begin(),
                                         scenario.stages.end() - 1);
  EXPECT_THROW(GraphExecutor(scenario.graph, short_stages), std::logic_error);
  // A synchronizer must be registered as nullptr.
  std::vector<GraphStageFn> sync_stage = scenario.stages;
  sync_stage[5] = [](std::vector<Item>&&, std::vector<Item>&) {};
  EXPECT_THROW(GraphExecutor(scenario.graph, sync_stage), std::logic_error);
  // A computing node must be callable.
  std::vector<GraphStageFn> null_stage = scenario.stages;
  null_stage[0] = nullptr;
  EXPECT_THROW(GraphExecutor(scenario.graph, null_stage), std::logic_error);
}

TEST(Arrivals, IrregularGapsReplayIdentically) {
  GraphScenario scenario = branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  GraphExecutorConfig config = scenario_config(scenario.graph, 1.25, 20.0);
  // A constant per-input gap schedule reproduces the fixed-gap run.
  GraphExecutorConfig per_input = config;
  per_input.input_gaps.assign(200, 20.0);
  per_input.input_gap = 999.0;  // must be ignored
  auto fixed = executor.run(scenario_inputs(200, 2), config);
  ASSERT_TRUE(fixed.ok()) << fixed.error().message;
  auto replay = executor.run(scenario_inputs(200, 2), per_input);
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  expect_same_execution(fixed.value(), replay.value());

  // And irregular gaps agree between the vector engine and the oracle.
  GraphExecutorConfig bursty = config;
  bursty.input_gaps.clear();
  for (std::size_t i = 0; i < 200; ++i) {
    bursty.input_gaps.push_back(i % 5 == 0 ? 90.0 : 3.0);
  }
  auto vector_run = executor.run(scenario_inputs(200, 2), bursty);
  ASSERT_TRUE(vector_run.ok()) << vector_run.error().message;
  auto reference = executor.run_reference(scenario_inputs(200, 2), bursty);
  ASSERT_TRUE(reference.ok());
  expect_same_execution(reference.value(), vector_run.value());
}

}  // namespace
}  // namespace ripple::graph
