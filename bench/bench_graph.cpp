// Google-benchmark suite for the DAG executor (src/graph): the branching
// mini-BLAST scenario against its duplicated-linear-chains workaround (the
// headline gate scripts/run_bench_graph.sh enforces: the DAG runs the shared
// seed-probe prefix once, the chains run it once per branch, so the DAG must
// win by >= 1.3x), the telemetry fan-in scenario exercising tee +
// synchronizer + merge, and per-item reference-engine rows for context.
// scripts/run_bench_graph.sh runs this suite, writes BENCH_graph.json at the
// repo root, and prints the gate verdict.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "graph/graph_executor.hpp"
#include "graph/scenarios.hpp"
#include "util/assert.hpp"

namespace {

using namespace ripple;
using graph::GraphExecutor;
using graph::GraphExecutorConfig;
using graph::GraphScenario;

constexpr std::size_t kInputs = 4000;

/// Self-timed schedule: every node fires at 1.25x its minimal interval and
/// inputs arrive at the source's own cadence, so virtual time never throttles
/// the host-time stage work being measured.
GraphExecutorConfig config_for(const graph::GraphSpec& spec) {
  GraphExecutorConfig config;
  config.firing_intervals = spec.minimal_firing_intervals();
  for (Cycles& x : config.firing_intervals) {
    x *= 1.25;
  }
  config.input_gap = config.firing_intervals.front();
  config.max_collected_results = 256;
  return config;
}

void report_input_rate(benchmark::State& state, std::size_t inputs) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
  state.counters["inputs_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(inputs),
      benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------------------------
// Branching mini-BLAST: DAG vs the duplicated-chain workaround.
// ---------------------------------------------------------------------------

/// The DAG: seed_probe + branch run once, the tee replicates survivors into
/// both extension variants, rescore merges elementwise.
void BM_GraphBranchingBlast(benchmark::State& state) {
  const GraphScenario scenario = graph::branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config = config_for(scenario.graph);
  const std::vector<graph::Item> inputs = graph::scenario_inputs(kInputs);
  for (auto _ : state) {
    auto run = executor.run(inputs, config);
    RIPPLE_REQUIRE(run.ok(), "branching blast run must succeed");
    benchmark::DoNotOptimize(run.value().base.sink_outputs);
  }
  report_input_rate(state, kInputs);
}
BENCHMARK(BM_GraphBranchingBlast)->Unit(benchmark::kMillisecond);

/// The linear workaround the DAG replaces: one chain per extension variant,
/// each re-running the seed_probe + branch prefix. One iteration = both
/// chains over the same inputs (their combined cost is what a linear-only
/// runtime would pay).
void BM_DuplicatedChains(benchmark::State& state) {
  const std::vector<GraphScenario> chains = graph::duplicated_chain_baseline();
  std::vector<std::unique_ptr<GraphExecutor>> executors;
  std::vector<GraphExecutorConfig> configs;
  executors.reserve(chains.size());
  for (const GraphScenario& chain : chains) {
    executors.push_back(
        std::make_unique<GraphExecutor>(chain.graph, chain.stages));
    configs.push_back(config_for(chain.graph));
  }
  const std::vector<graph::Item> inputs = graph::scenario_inputs(kInputs);
  for (auto _ : state) {
    for (std::size_t c = 0; c < executors.size(); ++c) {
      auto run = executors[c]->run(inputs, configs[c]);
      RIPPLE_REQUIRE(run.ok(), "duplicated chain run must succeed");
      benchmark::DoNotOptimize(run.value().base.sink_outputs);
    }
  }
  report_input_rate(state, kInputs);
}
BENCHMARK(BM_DuplicatedChains)->Unit(benchmark::kMillisecond);

/// Per-item oracle on the DAG, for context: the vector-wide engine's win
/// over one-item-at-a-time execution composes with the topology win.
void BM_GraphBranchingBlast_Reference(benchmark::State& state) {
  const GraphScenario scenario = graph::branching_blast_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config = config_for(scenario.graph);
  const std::vector<graph::Item> inputs = graph::scenario_inputs(kInputs);
  for (auto _ : state) {
    auto run = executor.run_reference(inputs, config);
    RIPPLE_REQUIRE(run.ok(), "branching blast reference must succeed");
    benchmark::DoNotOptimize(run.value().base.sink_outputs);
  }
  report_input_rate(state, kInputs);
}
BENCHMARK(BM_GraphBranchingBlast_Reference)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Telemetry fan-in: tee x3 -> parsers -> synchronizer -> merge.
// ---------------------------------------------------------------------------

void BM_TelemetryFanin(benchmark::State& state) {
  const GraphScenario scenario = graph::telemetry_fanin_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config = config_for(scenario.graph);
  const std::vector<graph::Item> inputs = graph::scenario_inputs(kInputs, 7);
  for (auto _ : state) {
    auto run = executor.run(inputs, config);
    RIPPLE_REQUIRE(run.ok(), "telemetry fan-in run must succeed");
    benchmark::DoNotOptimize(run.value().base.sink_outputs);
  }
  report_input_rate(state, kInputs);
}
BENCHMARK(BM_TelemetryFanin)->Unit(benchmark::kMillisecond);

void BM_TelemetryFanin_Reference(benchmark::State& state) {
  const GraphScenario scenario = graph::telemetry_fanin_scenario();
  const GraphExecutor executor(scenario.graph, scenario.stages);
  const GraphExecutorConfig config = config_for(scenario.graph);
  const std::vector<graph::Item> inputs = graph::scenario_inputs(kInputs, 7);
  for (auto _ : state) {
    auto run = executor.run_reference(inputs, config);
    RIPPLE_REQUIRE(run.ok(), "telemetry fan-in reference must succeed");
    benchmark::DoNotOptimize(run.value().base.sink_outputs);
  }
  report_input_rate(state, kInputs);
}
BENCHMARK(BM_TelemetryFanin_Reference)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
