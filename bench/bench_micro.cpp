// Google-benchmark micro suite: engine performance of the substrates the
// experiments are built on (event queue, solvers, simulators, distributions).
// These are performance regressions guards, not paper figures.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "core/enforced_waits.hpp"
#include "core/monolithic.hpp"
#include "core/sweep.hpp"
#include "device/dispatch.hpp"
#include "dist/gain.hpp"
#include "dist/lane_streams.hpp"
#include "dist/rng.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_sources.hpp"
#include "core/waterfill.hpp"
#include "obs/obs.hpp"
#include "queueing/bulk_queue.hpp"
#include "sched/quantum_sim.hpp"
#include "sim/greedy_sim.hpp"
#include "sim/monolithic_sim.hpp"
#include "util/ring_buffer.hpp"

namespace {

using namespace ripple;

/// Attach an events/sec rate counter fed by TrialMetrics::events_processed.
void report_event_rate(benchmark::State& state, std::uint64_t total_events) {
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
}

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  dist::Xoshiro256 rng(1);
  for (auto _ : state) {
    sim::EventQueue<int> queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.push(rng.uniform01() * 1e6, 0, static_cast<int>(i));
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(depth));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_XoshiroUniform(benchmark::State& state) {
  dist::Xoshiro256 rng(2);
  double acc = 0.0;
  for (auto _ : state) acc += rng.uniform01();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XoshiroUniform);

void BM_CensoredPoissonSample(benchmark::State& state) {
  const dist::CensoredPoissonGain gain(1.92, 16);
  dist::Xoshiro256 rng(3);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += gain.sample(rng);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CensoredPoissonSample);

void BM_EnforcedWaitsSolve(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  for (auto _ : state) {
    auto solved = strategy.solve(20.0, 1.85e5);
    benchmark::DoNotOptimize(solved.ok());
  }
}
BENCHMARK(BM_EnforcedWaitsSolve);

void BM_MonolithicSolve(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::MonolithicStrategy strategy(pipeline, {});
  const double tau0 = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto solved = strategy.solve(tau0, 3.5e5);
    benchmark::DoNotOptimize(solved.ok());
  }
}
BENCHMARK(BM_MonolithicSolve)->Arg(10)->Arg(100);

// One tau0 row of the paper's sweep grid: every block over the 100 paper
// deadlines from a single run walk. Items are cells.
void BM_MonolithicSolveRow(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::MonolithicStrategy strategy(pipeline, {});
  const double tau0 = static_cast<double>(state.range(0));
  const std::vector<Cycles> deadlines =
      core::SweepGrid::paper_ranges(1, 100).deadline_values;
  for (auto _ : state) {
    auto blocks = strategy.solve_row(tau0, deadlines);
    benchmark::DoNotOptimize(blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(deadlines.size()));
}
BENCHMARK(BM_MonolithicSolveRow)->Arg(1)->Arg(100);

void BM_EnforcedSimulation(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  const auto solved = strategy.solve(20.0, 1.85e5);
  const ItemCount inputs = static_cast<ItemCount>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    arrivals::FixedRateArrivals arrival_process(20.0);
    sim::EnforcedSimConfig config;
    config.input_count = inputs;
    config.deadline = 1.85e5;
    config.seed = ++seed;
    const auto metrics = sim::simulate_enforced_waits(
        pipeline, solved.value().firing_intervals, arrival_process, config);
    benchmark::DoNotOptimize(metrics.sink_outputs);
    total_events += metrics.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
  report_event_rate(state, total_events);
}
BENCHMARK(BM_EnforcedSimulation)->Arg(10000)->Arg(50000);

void BM_EnforcedSimulationLanes(benchmark::State& state) {
  // BM_EnforcedSimulation's trial run as one lockstep group of kTrialLanes
  // trials (one shared event walk, gain draws vectorized across trials), as
  // calibration runs its probes. Rates are per trial input, so items/s
  // compares directly with BM_EnforcedSimulation.
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  const auto solved = strategy.solve(20.0, 1.85e5);
  const ItemCount inputs = static_cast<ItemCount>(state.range(0));
  sim::EnforcedSimConfig config;
  config.input_count = inputs;
  config.deadline = 1.85e5;
  std::vector<sim::TrialMetrics> group(sim::kTrialLanes);
  std::vector<std::uint64_t> seeds(sim::kTrialLanes);
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    for (std::uint64_t& s : seeds) s = ++seed;
    sim::simulate_enforced_waits_lanes(pipeline,
                                       solved.value().firing_intervals, 20.0,
                                       config, seeds, group);
    for (const sim::TrialMetrics& trial : group) {
      benchmark::DoNotOptimize(trial.sink_outputs);
      total_events += trial.events_processed;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs) *
                          static_cast<std::int64_t>(sim::kTrialLanes));
  report_event_rate(state, total_events);
}
BENCHMARK(BM_EnforcedSimulationLanes)->Arg(10000)->Arg(50000);

#if RIPPLE_OBS
void BM_EnforcedSimulationObsEnabled(benchmark::State& state) {
  // Same workload as BM_EnforcedSimulation but with observability recording
  // switched on, to price the enabled path (spans + counters into the ring).
  // The disabled-path overhead gate compares BM_EnforcedSimulation between
  // RIPPLE_OBS=OFF and =ON builds instead (scripts/run_bench_obs.sh).
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  const auto solved = strategy.solve(20.0, 1.85e5);
  const ItemCount inputs = static_cast<ItemCount>(state.range(0));
  obs::set_enabled(true);
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    arrivals::FixedRateArrivals arrival_process(20.0);
    sim::EnforcedSimConfig config;
    config.input_count = inputs;
    config.deadline = 1.85e5;
    config.seed = ++seed;
    const auto metrics = sim::simulate_enforced_waits(
        pipeline, solved.value().firing_intervals, arrival_process, config);
    benchmark::DoNotOptimize(metrics.sink_outputs);
    total_events += metrics.events_processed;
  }
  obs::set_enabled(false);
  obs::TraceSession::global().clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
  report_event_rate(state, total_events);
}
BENCHMARK(BM_EnforcedSimulationObsEnabled)->Arg(10000);
#endif  // RIPPLE_OBS

void BM_MonolithicSimulation(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const ItemCount inputs = static_cast<ItemCount>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    arrivals::FixedRateArrivals arrival_process(20.0);
    sim::MonolithicSimConfig config;
    config.block_size = 2000;
    config.input_count = inputs;
    config.deadline = 1.85e5;
    config.seed = ++seed;
    const auto metrics =
        sim::simulate_monolithic(pipeline, arrival_process, config);
    benchmark::DoNotOptimize(metrics.sink_outputs);
    total_events += metrics.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
  report_event_rate(state, total_events);
}
BENCHMARK(BM_MonolithicSimulation)->Arg(10000)->Arg(50000);


void BM_GreedySimulation(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const ItemCount inputs = static_cast<ItemCount>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    arrivals::FixedRateArrivals arrival_process(20.0);
    sim::GreedySimConfig config;
    config.input_count = inputs;
    config.seed = ++seed;
    const auto metrics =
        sim::simulate_greedy_throughput(pipeline, arrival_process, config);
    benchmark::DoNotOptimize(metrics.sink_outputs);
    total_events += metrics.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs));
  report_event_rate(state, total_events);
}
BENCHMARK(BM_GreedySimulation)->Arg(20000);

void BM_QuantumSimulation(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(
      pipeline, core::EnforcedWaitsConfig{blast::paper_calibrated_b()});
  const auto solved = strategy.solve(20.0, 1.85e5);
  const Cycles quantum = static_cast<Cycles>(state.range(0));
  std::uint64_t seed = 0;
  std::uint64_t total_events = 0;
  for (auto _ : state) {
    arrivals::FixedRateArrivals arrival_process(20.0);
    sched::QuantumSimConfig config;
    config.quantum = quantum;
    config.input_count = 10000;
    config.seed = ++seed;
    const auto metrics = sched::simulate_quantum_scheduled(
        pipeline, solved.value().firing_intervals, arrival_process, config);
    benchmark::DoNotOptimize(metrics.base.sink_outputs);
    total_events += metrics.base.events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
  report_event_rate(state, total_events);
}
BENCHMARK(BM_QuantumSimulation)->Arg(10)->Arg(200);

void BM_BulkQueueAnalysis(benchmark::State& state) {
  queueing::BulkQueueConfig config;
  config.batch_size = 128;
  config.arrivals_per_interval =
      queueing::poisson_pmf(static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto analysis = queueing::analyze_bulk_queue(config);
    benchmark::DoNotOptimize(analysis.ok());
  }
}
BENCHMARK(BM_BulkQueueAnalysis)->Arg(64)->Arg(115);

void BM_IndexedSchedulerCycle(benchmark::State& state) {
  // The enforced simulator's event machinery in isolation: pop the winning
  // source and immediately re-arm it, over the canonical 2N+1 = 9 sources.
  const std::size_t sources = static_cast<std::size_t>(state.range(0));
  sim::IndexedScheduler sched(sources);
  dist::Xoshiro256 rng(5);
  for (std::size_t s = 0; s < sources; ++s) {
    sched.schedule(s, rng.uniform01() * 100.0, static_cast<int>(s % 3));
  }
  for (auto _ : state) {
    const auto next = sched.pop();
    sched.schedule(next.source, next.time + 1.0 + rng.uniform01() * 10.0,
                   static_cast<int>(next.source % 3));
    benchmark::DoNotOptimize(next.time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedSchedulerCycle)->Arg(9)->Arg(33);

void BM_RingBufferPushPop(benchmark::State& state) {
  const std::size_t burst = static_cast<std::size_t>(state.range(0));
  util::RingBuffer<std::uint32_t> buffer;
  buffer.reserve(burst);
  std::uint32_t value = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < burst; ++i) buffer.push_back(value++);
    while (!buffer.empty()) benchmark::DoNotOptimize(buffer.pop_front());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_RingBufferPushPop)->Arg(128)->Arg(4096);

void BM_CensoredPoissonSampleN(benchmark::State& state) {
  // Batched counterpart of BM_CensoredPoissonSample: one virtual call per
  // SIMD-width block instead of one per item.
  const dist::CensoredPoissonGain gain(1.92, 16);
  dist::Xoshiro256 rng(3);
  dist::OutputCount draws[128];
  for (auto _ : state) {
    gain.sample_n(rng, draws, 128);
    benchmark::DoNotOptimize(draws[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_CensoredPoissonSampleN);

void BM_BernoulliSampleN(benchmark::State& state) {
  const dist::BernoulliGain gain(0.379);
  dist::Xoshiro256 rng(4);
  dist::OutputCount draws[128];
  for (auto _ : state) {
    gain.sample_n(rng, draws, 128);
    benchmark::DoNotOptimize(draws[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_BernoulliSampleN);

/// Lockstep draws (GainDistribution::sample_lanes, the dist.*_lanes
/// kernels) with dispatch pinned to the SimdLevel in Arg: 0 scalar, 2 AVX2,
/// 3 AVX-512. Each call draws 128 rows for all 8 streams; items are draws.
void lane_draws(benchmark::State& state, const dist::GainDistribution& gain) {
  const auto level = static_cast<device::SimdLevel>(state.range(0));
  if (!device::level_supported(level)) {
    state.SkipWithError("dispatch level not supported on this host");
    return;
  }
  device::set_simd_override(level);
  dist::LaneStreams streams;
  for (std::size_t k = 0; k < dist::kStreamLanes; ++k) streams.seed(k, 5 + k);
  std::uint32_t counts[dist::kStreamLanes];
  std::fill_n(counts, dist::kStreamLanes, 128u);
  static dist::OutputCount draws[128 * dist::kStreamLanes];
  for (auto _ : state) {
    gain.sample_lanes(streams, counts, draws);
    benchmark::DoNotOptimize(draws);
    benchmark::ClobberMemory();
  }
  device::set_simd_override(std::nullopt);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128 * static_cast<std::int64_t>(dist::kStreamLanes));
}

void BM_BernoulliLanes(benchmark::State& state) {
  lane_draws(state, dist::BernoulliGain(0.379));
}
BENCHMARK(BM_BernoulliLanes)->Arg(0)->Arg(2)->Arg(3);

void BM_CensoredPoissonLanes(benchmark::State& state) {
  lane_draws(state, dist::CensoredPoissonGain(1.92, 16));
}
BENCHMARK(BM_CensoredPoissonLanes)->Arg(0)->Arg(2)->Arg(3);

void BM_WaterfillSolve(benchmark::State& state) {
  const auto pipeline = blast::canonical_blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  for (auto _ : state) {
    auto solved = core::waterfill_solve(pipeline, b, 100.0, 3.5e5);
    benchmark::DoNotOptimize(solved.ok());
  }
}
BENCHMARK(BM_WaterfillSolve);

}  // namespace

BENCHMARK_MAIN();
