// Workload batch_exec: the batch executors on real computation, with dense
// constant-gap arrivals, so the blast kernels and the runtime/graph engine
// machinery do all the work and no idle virtual time passes.
//
// One job = three runs:
//   * the typed mini-BLAST chain (blast::make_batch_stages) through
//     PipelineExecutor::run_batch at the host's best SIMD level, on the
//     measured spec and solved schedule of bench/bench_runtime.cpp's
//     BlastWorkload (sequences generated from --seed);
//   * graph::branching_blast_scenario and graph::telemetry_fanin_scenario
//     through GraphExecutor::run on bench/bench_graph.cpp's self-timed
//     schedule (inputs generated from --seed).
// Set-up also runs the oracles the outputs are checked against:
// ReferenceExecutor for the chain, GraphExecutor::run_reference for the DAGs.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "blast/batch_stages.hpp"
#include "blast/measure.hpp"
#include "blast/sequence.hpp"
#include "blast/stages.hpp"
#include "common.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "graph/graph_executor.hpp"
#include "graph/scenarios.hpp"
#include "runtime/pipeline_executor.hpp"
#include "runtime/reference_executor.hpp"

namespace e2e {
namespace {

using namespace ripple;

constexpr std::size_t kSetups = 15;
/// Windows the spec is measured over (as in BlastWorkload).
constexpr std::size_t kMeasureWindows = 12000;
/// Chain runs per job: one run over every subject window takes about 1/6 of
/// the two DAG runs, so 6 give the chain and the DAGs similar weight.
constexpr std::size_t kChainRuns = 6;
constexpr std::size_t kDagInputs = 4000;

/// Wall time spent inside wrapped stage callbacks, per node. Each executor
/// runs on one thread (exec_threads = 1), so plain doubles suffice.
struct StageClock {
  std::vector<double> node_us;
  void reset() { std::fill(node_us.begin(), node_us.end(), 0.0); }
};

std::vector<runtime::BatchStage> timed(std::vector<runtime::BatchStage> stages,
                                       StageClock& clock) {
  clock.node_us.assign(stages.size(), 0.0);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    runtime::BatchStageFn inner = std::move(stages[i].fn);
    stages[i].fn = [inner = std::move(inner), slot = &clock.node_us[i]](
                       const runtime::LaneView& lanes,
                       runtime::BatchEmitter& out) {
      const double start = now_us();
      inner(lanes, out);
      *slot += now_us() - start;
    };
  }
  return stages;
}

std::vector<graph::GraphStageFn> timed(std::vector<graph::GraphStageFn> stages,
                                       StageClock& clock) {
  clock.node_us.assign(stages.size(), 0.0);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (!stages[i]) continue;  // synchronizers forward without a stage
    graph::GraphStageFn inner = std::move(stages[i]);
    stages[i] = [inner = std::move(inner), slot = &clock.node_us[i]](
                    std::vector<graph::Item>&& inputs,
                    std::vector<graph::Item>& outputs) {
      const double start = now_us();
      inner(std::move(inputs), outputs);
      *slot += now_us() - start;
    };
  }
  return stages;
}

struct Chain {
  blast::SequencePair pair;
  blast::BlastStages stages;
  sdf::PipelineSpec spec;
  runtime::ExecutorConfig config;
  runtime::BatchInputs inputs;
  std::unique_ptr<runtime::PipelineExecutor> executor;
  StageClock clock;
  std::unique_ptr<runtime::PipelineExecutor> timed_executor;
  runtime::ExecutionMetrics reference;

  Chain(std::uint64_t seed)
      : pair(make_pair(seed)), stages(pair, blast::BlastStages::Config{}),
        spec(make_spec(stages)),
        inputs(blast::make_batch_inputs(stages, stages.input_count())) {
    // bench_runtime's BlastWorkload schedule: the paper-style b on the
    // measured spec, tau0 at 4x the mean service per input.
    const core::EnforcedWaitsStrategy strategy(
        spec, core::EnforcedWaitsConfig{{2.0, 4.0, 9.0, 6.0}});
    const double tau0 = spec.mean_service_per_input() * 4.0;
    const double deadline = 600.0 * spec.service_time(3);
    config.firing_intervals = strategy.solve(tau0, deadline).value().firing_intervals;
    config.input_gap = tau0;
    config.deadline = deadline;
    config.max_collected_results = inputs.size() * 16;
    executor = std::make_unique<runtime::PipelineExecutor>(
        spec, blast::make_batch_stages(stages));
    timed_executor = std::make_unique<runtime::PipelineExecutor>(
        spec, timed(blast::make_batch_stages(stages), clock));

    std::vector<runtime::Item> items;
    // Every subject window, so that which windows hold the planted
    // homologies does not change the work from seed to seed.
    items.reserve(inputs.size());
    for (std::size_t w = 0; w < inputs.size(); ++w) {
      items.emplace_back(static_cast<std::uint32_t>(w));
    }
    const runtime::ReferenceExecutor oracle(spec, blast::make_item_stages(stages));
    reference = oracle.run(std::move(items), config).take();
  }

  static blast::SequencePair make_pair(std::uint64_t seed) {
    dist::Xoshiro256 rng(seed);
    blast::SequencePairConfig pair_config;
    pair_config.subject_length = 1 << 15;
    pair_config.query_length = 1 << 13;
    return blast::make_sequence_pair(pair_config, rng);
  }

  static sdf::PipelineSpec make_spec(const blast::BlastStages& stages) {
    blast::MeasureConfig measure_config;
    measure_config.window_count = kMeasureWindows;
    return blast::measure_pipeline(stages, measure_config)
        .to_pipeline_spec(128)
        .take();
  }
};

struct Dag {
  std::string name;
  graph::GraphScenario scenario;
  graph::GraphExecutorConfig config;
  std::vector<graph::Item> inputs;
  std::unique_ptr<graph::GraphExecutor> executor;
  StageClock clock;
  std::unique_ptr<graph::GraphExecutor> timed_executor;
  runtime::ExecutionMetrics reference;

  Dag(std::string dag_name, graph::GraphScenario s, std::uint64_t seed)
      : name(std::move(dag_name)), scenario(std::move(s)),
        inputs(graph::scenario_inputs(kDagInputs, seed)) {
    // bench_graph's self-timed schedule: every node at 1.25x its minimal
    // interval, inputs at the source's own cadence.
    config.firing_intervals = scenario.graph.minimal_firing_intervals();
    for (Cycles& x : config.firing_intervals) x *= 1.25;
    config.input_gap = config.firing_intervals.front();
    config.max_collected_results = kDagInputs * 16;
    executor = std::make_unique<graph::GraphExecutor>(scenario.graph,
                                                      scenario.stages);
    timed_executor = std::make_unique<graph::GraphExecutor>(
        scenario.graph, timed(scenario.stages, clock));
    reference = executor->run_reference(inputs, config).take();
  }
};

struct Setup {
  std::unique_ptr<Chain> chain;
  std::vector<std::unique_ptr<Dag>> dags;
};

Setup make_setup(std::uint64_t seed) {
  Setup setup;
  setup.chain = std::make_unique<Chain>(dist::derive_seed({seed, 0xB1A5}));
  setup.dags.push_back(std::make_unique<Dag>(
      "blast", graph::branching_blast_scenario(), dist::derive_seed({seed, 0xDA61})));
  setup.dags.push_back(std::make_unique<Dag>(
      "fanin", graph::telemetry_fanin_scenario(), dist::derive_seed({seed, 0xDA62})));
  return setup;
}

bool same_counters(const sim::TrialMetrics& a, const sim::TrialMetrics& b) {
  if (a.sink_outputs != b.sink_outputs || a.inputs_missed != b.inputs_missed ||
      a.inputs_arrived != b.inputs_arrived || a.nodes.size() != b.nodes.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    if (a.nodes[i].firings != b.nodes[i].firings ||
        a.nodes[i].empty_firings != b.nodes[i].empty_firings ||
        a.nodes[i].items_consumed != b.nodes[i].items_consumed ||
        a.nodes[i].items_produced != b.nodes[i].items_produced) {
      return false;
    }
  }
  return true;
}

bool chain_matches(const runtime::ExecutionMetrics& run,
                   const runtime::ExecutionMetrics& reference) {
  if (!same_counters(run.base, reference.base) ||
      run.results.size() != reference.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto* x = std::any_cast<blast::Alignment>(&run.results[i]);
    const auto* y = std::any_cast<blast::Alignment>(&reference.results[i]);
    if (x == nullptr || y == nullptr || x->subject_pos != y->subject_pos ||
        x->query_pos != y->query_pos || x->score != y->score) {
      return false;
    }
  }
  return true;
}

bool dag_matches(const runtime::ExecutionMetrics& run,
                 const runtime::ExecutionMetrics& reference) {
  if (!same_counters(run.base, reference.base) ||
      run.results.size() != reference.results.size()) {
    return false;
  }
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const auto* x = std::any_cast<std::uint64_t>(&run.results[i]);
    const auto* y = std::any_cast<std::uint64_t>(&reference.results[i]);
    if (x == nullptr || y == nullptr || *x != *y) return false;
  }
  return true;
}

/// One job's measurements; stage times are filled only for traced jobs.
struct Job {
  double wall_s = 0.0;  ///< the whole job, timed on its own
  double cpu_s = 0.0;   ///< process CPU time inside the executor runs
  double chain_s = 0.0;  ///< all kChainRuns runs
  std::vector<double> dag_s;
  double check_s = 0.0;  ///< output checks against the oracles
  std::vector<double> chain_stage_us;
  std::vector<std::vector<double>> dag_node_us;
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
};

struct ChainShape {
  std::vector<double> occupancy;
  std::uint64_t empty_firings = 0;
};

Job run_job(Setup& setup, bool traced, ChainShape* shape) {
  Job job;
  const Clock::time_point start = Clock::now();
  Chain& chain = *setup.chain;
  chain.clock.reset();
  for (std::size_t k = 0; k < kChainRuns; ++k) {
    Span span(traced, "runtime.run_batch");
    const runtime::PipelineExecutor& executor =
        traced ? *chain.timed_executor : *chain.executor;
    const double cpu = process_cpu_s();
    const Clock::time_point t = Clock::now();
    auto result = executor.run_batch(chain.inputs, chain.config);
    job.chain_s += seconds_since(t);
    job.cpu_s += process_cpu_s() - cpu;
    ++job.runs;
    const Clock::time_point check = Clock::now();
    const bool ok = result.ok() && chain_matches(result.value(), chain.reference);
    job.check_s += seconds_since(check);
    if (!ok) {
      ++job.failed_runs;
    } else if (shape != nullptr) {
      const sim::TrialMetrics& m = result.value().base;
      shape->occupancy.clear();
      shape->empty_firings = 0;
      for (const sim::NodeMetrics& node : m.nodes) {
        shape->occupancy.push_back(node.mean_occupancy(chain.spec.simd_width()));
        shape->empty_firings += node.empty_firings;
      }
    }
  }
  if (traced) job.chain_stage_us = chain.clock.node_us;
  for (auto& dag : setup.dags) {
    Span span(traced, "graph.run");
    const graph::GraphExecutor& executor =
        traced ? *dag->timed_executor : *dag->executor;
    dag->clock.reset();
    const double cpu = process_cpu_s();
    const Clock::time_point t = Clock::now();
    auto result = executor.run(dag->inputs, dag->config);
    job.dag_s.push_back(seconds_since(t));
    job.cpu_s += process_cpu_s() - cpu;
    ++job.runs;
    const Clock::time_point check = Clock::now();
    if (!result.ok() || !dag_matches(result.value(), dag->reference)) {
      ++job.failed_runs;
    }
    job.check_s += seconds_since(check);
    if (traced) job.dag_node_us.push_back(dag->clock.node_us);
  }
  job.wall_s = seconds_since(start);
  return job;
}

std::vector<Job> run_jobs(Setup& setup, double budget_s, bool traced,
                          ChainShape* shape) {
  std::vector<Job> jobs;
  const Clock::time_point start = Clock::now();
  while (jobs.size() < 3 || seconds_since(start) < budget_s) {
    jobs.push_back(run_job(setup, traced, shape));
  }
  return jobs;
}

double dag_total_s(const Job& job) {
  double total = 0.0;
  for (double t : job.dag_s) total += t;
  return total;
}

}  // namespace

void run_batch_exec(const Args& args, Report& report) {
  Setup setup;
  const double setup_s = setup_cpu_s(
      kSetups, [&] { setup = Setup{}; }, [&] { setup = make_setup(args.seed); });

  ChainShape shape;
  // A first job warms caches and the executors' lazy state; it is checked
  // and counted but not timed.
  const Job warmup = run_job(setup, false, &shape);
  const std::vector<Job> untraced =
      run_jobs(setup, args.trace ? args.seconds / 2 : args.seconds, false, nullptr);
  std::vector<Job> traced;
  if (args.trace) traced = run_jobs(setup, args.seconds / 2, true, nullptr);

  const auto count = [&](const Job& job) {
    report.attempted += job.runs;
    report.failed += job.failed_runs;
  };
  count(warmup);
  for (const Job& job : untraced) count(job);
  for (const Job& job : traced) count(job);
  if (report.failed != 0) {
    report.fail_check(std::to_string(report.failed) +
                      " executor runs failed or disagreed with their oracle");
  }
  const Chain& chain = *setup.chain;
  report.note("batch: " + std::to_string(report.attempted) + " runs; chain " +
              std::to_string(chain.inputs.size()) + " windows -> " +
              std::to_string(chain.reference.base.sink_outputs) +
              " alignments; DAGs " + std::to_string(kDagInputs) + " inputs -> " +
              std::to_string(setup.dags[0]->reference.base.sink_outputs) + " / " +
              std::to_string(setup.dags[1]->reference.base.sink_outputs) +
              " outputs");

  const double chain_s = median_by(untraced, [](const Job& j) { return j.chain_s; });
  const double dag_s = median_by(untraced, dag_total_s);
  const double cpu_s = median_by(untraced, [](const Job& j) { return j.cpu_s; });
  const double job_inputs =
      static_cast<double>(kChainRuns * chain.inputs.size() + kDagInputs * setup.dags.size());
  report.figure("chain_windows_per_s",
                static_cast<double>(kChainRuns * chain.inputs.size()) / chain_s,
                "windows/s");
  report.figure("dag_items_per_s",
                static_cast<double>(kDagInputs * setup.dags.size()) / dag_s, "inputs/s");
  report.figure("failed_ratio", report.failed_ratio(), "ratio");
  if (!args.trace) {
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cpu_us_per_item", 1e6 * cpu_s / job_inputs, "us");
    return;
  }

  const double chain_run_ms =
      1e3 * median_by(traced, [](const Job& j) { return j.chain_s; }) / kChainRuns;
  report.add("runtime.chain_run_ms", chain_run_ms, "ms");
  double stage_ms_total = 0.0;
  for (std::size_t i = 0; i < chain.clock.node_us.size(); ++i) {
    const double ms =
        1e-3 * median_by(traced, [i](const Job& j) { return j.chain_stage_us[i]; }) /
        kChainRuns;
    stage_ms_total += ms;
    report.add("blast.stage" + std::to_string(i) + "_ms", ms, "ms");
  }
  report.add("runtime.chain_machinery_ms", chain_run_ms - stage_ms_total, "ms");
  for (std::size_t i = 0; i < shape.occupancy.size(); ++i) {
    report.add("blast.stage" + std::to_string(i) + "_occupancy", shape.occupancy[i],
               "ratio");
  }
  report.add("runtime.chain_empty_firings", static_cast<double>(shape.empty_firings),
             "count");

  double dag_run_ms_total = 0.0;
  double node_ms_total = 0.0;
  for (std::size_t d = 0; d < setup.dags.size(); ++d) {
    const Dag& dag = *setup.dags[d];
    const double run_ms =
        1e3 * median_by(traced, [d](const Job& j) { return j.dag_s[d]; });
    dag_run_ms_total += run_ms;
    report.add("graph." + dag.name + "_run_ms", run_ms, "ms");
    for (std::size_t n = 0; n < dag.scenario.graph.size(); ++n) {
      if (!dag.scenario.stages[n]) continue;
      const double ms = 1e-3 * median_by(traced, [d, n](const Job& j) {
                          return j.dag_node_us[d][n];
                        });
      node_ms_total += ms;
      report.add("graph.node_ms." + dag.name + "." + dag.scenario.graph.node(n).name,
                 ms, "ms");
    }
  }
  report.add("graph.machinery_ms", dag_run_ms_total - node_ms_total, "ms");

  report.add("trace.untraced_wall_s",
             median_by(untraced, [](const Job& j) { return j.wall_s; }), "s");
  report.add("trace.overhead_ratio",
             median_by(traced, [](const Job& j) { return j.cpu_s; }) / cpu_s - 1.0,
             "ratio");
  // Job wall time that neither the executor runs nor the output checks
  // account for.
  report.add("trace.unexplained_s", median_by(traced, [](const Job& j) {
               return j.wall_s - j.chain_s - dag_total_s(j) - j.check_s;
             }), "s");
}

}  // namespace e2e
