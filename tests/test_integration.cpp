// End-to-end integration tests: the full path the paper's evaluation takes —
// canonical pipeline -> optimization -> simulation -> paper-level claims.
#include <gtest/gtest.h>

#include "arrivals/arrival_process.hpp"
#include "blast/canonical.hpp"
#include "blast/measure.hpp"
#include "calib/calibrate.hpp"
#include "core/sweep.hpp"
#include "sdf/analysis.hpp"
#include "dist/rng.hpp"
#include "sim/enforced_sim.hpp"
#include "sim/monolithic_sim.hpp"
#include "sim/trial_runner.hpp"

namespace ripple {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

core::EnforcedWaitsConfig paper_config() {
  return core::EnforcedWaitsConfig{blast::paper_calibrated_b()};
}

TEST(Integration, Table1ConstantsMatchPaper) {
  const auto pipeline = blast_pipeline();
  ASSERT_EQ(pipeline.size(), 4u);
  EXPECT_EQ(pipeline.simd_width(), 128u);
  EXPECT_DOUBLE_EQ(pipeline.service_time(0), 287.0);
  EXPECT_DOUBLE_EQ(pipeline.service_time(1), 955.0);
  EXPECT_DOUBLE_EQ(pipeline.service_time(2), 402.0);
  EXPECT_DOUBLE_EQ(pipeline.service_time(3), 2753.0);
  EXPECT_DOUBLE_EQ(pipeline.mean_gain(0), 0.379);
  EXPECT_NEAR(pipeline.mean_gain(1), 1.92, 1e-9);
  EXPECT_DOUBLE_EQ(pipeline.mean_gain(2), 0.0332);
  EXPECT_EQ(pipeline.node(1).gain->max_outputs(), 16u);
}

TEST(Integration, PredictedVsSimulatedActiveFractionEnforced) {
  // Paper Section 6.2: "the active fractions measured in the simulator
  // closely matched those predicted by the optimizer".
  const auto pipeline = blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(pipeline, paper_config());
  for (double tau0 : {5.0, 20.0, 80.0}) {
    for (double deadline : {6e4, 1.85e5, 3.5e5}) {
      auto solved = strategy.solve(tau0, deadline);
      if (!solved.ok()) continue;
      arrivals::FixedRateArrivals arrival_process(tau0);
      sim::EnforcedSimConfig config;
      config.input_count = 20000;
      config.deadline = deadline;
      config.seed = dist::derive_seed({static_cast<std::uint64_t>(tau0 * 100),
                                       static_cast<std::uint64_t>(deadline)});
      const auto metrics = sim::simulate_enforced_waits(
          pipeline, solved.value().firing_intervals, arrival_process, config);
      const double predicted = solved.value().predicted_active_fraction;
      EXPECT_NEAR(metrics.active_fraction(), predicted, 0.06 * predicted + 0.01)
          << "tau0=" << tau0 << " D=" << deadline;
    }
  }
}

TEST(Integration, PredictedVsSimulatedActiveFractionMonolithic) {
  const auto pipeline = blast_pipeline();
  const core::MonolithicStrategy strategy(pipeline, {});
  const double tau0 = 60.0;
  const double deadline = 4e4;  // small blocks -> many blocks per stream
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok());
  arrivals::FixedRateArrivals arrival_process(tau0);
  sim::MonolithicSimConfig config;
  config.block_size = solved.value().block_size;
  config.input_count = 60000;
  config.deadline = deadline;
  config.seed = 5150;
  const auto metrics = sim::simulate_monolithic(pipeline, arrival_process, config);
  const double predicted = solved.value().predicted_active_fraction;
  EXPECT_NEAR(metrics.active_fraction(), predicted, 0.1 * predicted);
}

TEST(Integration, CalibratedBGivesHighMissFreeFraction) {
  // A scaled-down version of the paper's calibration acceptance criterion:
  // with b = {1,3,9,6}, at least 95% of trials are miss-free.
  const auto pipeline = blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(pipeline, paper_config());
  const double tau0 = 10.0;
  const double deadline = 1.85e5;
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok());
  const auto intervals = solved.value().firing_intervals;

  auto trial_fn = [&](std::uint64_t trial) {
    arrivals::FixedRateArrivals arrival_process(tau0);
    sim::EnforcedSimConfig config;
    config.input_count = 10000;  // scaled down from 50000
    config.deadline = deadline;
    config.seed = dist::derive_seed({0xCA11B, trial});
    return sim::simulate_enforced_waits(pipeline, intervals, arrival_process,
                                        config);
  };
  const sim::TrialSummary summary = sim::run_trials(trial_fn, 20);
  EXPECT_GE(summary.miss_free_fraction(), 0.95);
  // And when misses do occur they affect under 1% of inputs (paper claim).
  EXPECT_LT(summary.miss_fraction.max(), 0.01);
}

TEST(Integration, OptimisticBMissesMoreThanCalibrated) {
  // Paper: "Smaller values for the b parameters empirically incurred much
  // more frequent deadline misses." Optimistic b shrinks the budget, letting
  // the optimizer stretch firing intervals beyond what transients allow.
  const auto pipeline = blast_pipeline();
  const double tau0 = 10.0;
  const double deadline = 6e4;

  auto run_with = [&](const core::EnforcedWaitsConfig& config) {
    const core::EnforcedWaitsStrategy strategy(pipeline, config);
    auto solved = strategy.solve(tau0, deadline);
    EXPECT_TRUE(solved.ok());
    auto trial_fn = [&, intervals = solved.value().firing_intervals](
                        std::uint64_t trial) {
      arrivals::FixedRateArrivals arrival_process(tau0);
      sim::EnforcedSimConfig sim_config;
      sim_config.input_count = 10000;
      sim_config.deadline = deadline;
      sim_config.seed = dist::derive_seed({0x0B5E55ED, trial});
      return sim::simulate_enforced_waits(pipeline, intervals, arrival_process,
                                          sim_config);
    };
    return sim::run_trials(trial_fn, 10);
  };

  const auto optimistic =
      run_with(core::EnforcedWaitsConfig::optimistic(pipeline));
  const auto calibrated = run_with(paper_config());
  EXPECT_LT(optimistic.miss_free_fraction(), calibrated.miss_free_fraction());
  EXPECT_GE(calibrated.miss_free_fraction(), 0.9);
}

TEST(Integration, Figure4DominanceRegions) {
  // The qualitative content of Figures 3-4 on a coarse grid.
  util::ThreadPool pool(2);
  // 12 tau0 points (step 9) include tau0 = 10, where the monolithic strategy
  // is barely stable and the enforced-waits advantage peaks.
  const auto surface =
      core::run_sweep(blast_pipeline(), paper_config(), {},
                      core::SweepGrid::paper_ranges(12, 6), {&pool});
  const auto summary = core::summarize_dominance(surface);
  // Enforced waits dominate somewhere by at least 0.4 (paper's figure).
  EXPECT_GE(summary.max_enforced_advantage, 0.4);
  // Monolithic dominates somewhere too (slow arrivals, tight deadline).
  EXPECT_GT(summary.max_monolithic_advantage, 0.1);
  // Both regions are non-trivial.
  EXPECT_GT(summary.enforced_wins, 3u);
  EXPECT_GT(summary.monolithic_wins, 3u);
}

TEST(Integration, MeasuredMiniBlastPipelineIsSchedulable) {
  // The full substrate path: synthesize sequences, measure the real
  // computation, build a pipeline spec from measurements, then optimize and
  // simulate it under both strategies.
  dist::Xoshiro256 rng(515);
  blast::SequencePairConfig pair_config;
  pair_config.subject_length = 1 << 16;
  pair_config.query_length = 1 << 14;
  const auto pair = blast::make_sequence_pair(pair_config, rng);
  blast::BlastStages::Config stage_config;
  stage_config.k = 8;
  const blast::BlastStages stages(pair, stage_config);
  blast::MeasureConfig measure_config;
  measure_config.window_count = 30000;
  const auto measurement = blast::measure_pipeline(stages, measure_config);
  auto spec = measurement.to_pipeline_spec(128);
  ASSERT_TRUE(spec.ok()) << spec.error().message;
  const auto& pipeline = spec.value();

  // Generous deadline and moderate rate: both strategies feasible.
  const double tau0 = pipeline.mean_service_per_input() * 4.0;
  const double deadline = 400.0 * pipeline.service_time(3);

  const core::EnforcedWaitsStrategy enforced(
      pipeline, core::EnforcedWaitsConfig{{2.0, 4.0, 9.0, 6.0}});
  auto e = enforced.solve(tau0, deadline);
  ASSERT_TRUE(e.ok()) << e.error().message;
  EXPECT_LT(e.value().predicted_active_fraction, 1.0);

  const core::MonolithicStrategy monolithic(pipeline, {});
  auto m = monolithic.solve(tau0, deadline);
  ASSERT_TRUE(m.ok()) << m.error().message;

  // Simulate the enforced schedule briefly: it must be stable and produce
  // sink outputs.
  arrivals::FixedRateArrivals arrival_process(tau0);
  sim::EnforcedSimConfig sim_config;
  sim_config.input_count = 5000;
  sim_config.deadline = deadline;
  sim_config.seed = 161;
  const auto metrics = sim::simulate_enforced_waits(
      pipeline, e.value().firing_intervals, arrival_process, sim_config);
  EXPECT_GT(metrics.sink_outputs, 0u);
  EXPECT_LT(metrics.miss_fraction(), 0.05);
}

TEST(Integration, PoissonArrivalsDegradeGracefully) {
  // Future-work extension: Poisson arrivals at the same mean rate produce
  // transient bursts; the calibrated schedule should still keep misses rare.
  const auto pipeline = blast_pipeline();
  const core::EnforcedWaitsStrategy strategy(pipeline, paper_config());
  const double tau0 = 20.0;
  const double deadline = 1.85e5;
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok());
  arrivals::PoissonArrivals arrival_process(tau0);
  sim::EnforcedSimConfig config;
  config.input_count = 20000;
  config.deadline = deadline;
  config.seed = 818;
  const auto metrics = sim::simulate_enforced_waits(
      pipeline, solved.value().firing_intervals, arrival_process, config);
  EXPECT_LT(metrics.miss_fraction(), 0.02);
}

TEST(Integration, DeepPipelineSixteenStages) {
  // Nothing in the stack may assume N = 4: build a 16-stage pipeline,
  // optimize, certify, and simulate it end to end.
  dist::Xoshiro256 rng(1616);
  sdf::PipelineBuilder builder("deep");
  builder.simd_width(64);
  std::vector<double> b;
  for (int i = 0; i < 16; ++i) {
    const double t = 40.0 + rng.uniform01() * 300.0;
    if (i == 15) {
      builder.add_node("sink", t, dist::make_deterministic(1));
    } else if (i % 5 == 2) {
      builder.add_node("expand" + std::to_string(i), t,
                       dist::make_censored_poisson(1.4, 8));
    } else {
      builder.add_node("filter" + std::to_string(i), t,
                       dist::make_bernoulli(0.6 + 0.3 * rng.uniform01()));
    }
    b.push_back(3.0);
  }
  const auto pipeline = std::move(builder.build()).take();
  const core::EnforcedWaitsStrategy strategy(pipeline,
                                             core::EnforcedWaitsConfig{b});

  const double tau0 = pipeline.mean_service_per_input() * 3.0;
  const double deadline =
      2.5 * sdf::minimal_deadline_budget(pipeline, b);
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok()) << solved.error().message;
  EXPECT_TRUE(solved.value().kkt.satisfied(1e-3));

  arrivals::FixedRateArrivals arrival_process(tau0);
  sim::EnforcedSimConfig config;
  config.input_count = 10000;
  config.deadline = deadline;
  config.seed = 7;
  const auto metrics = sim::simulate_enforced_waits(
      pipeline, solved.value().firing_intervals, arrival_process, config);
  EXPECT_GT(metrics.sink_outputs, 0u);
  EXPECT_NEAR(metrics.active_fraction(),
              solved.value().predicted_active_fraction,
              0.05 * solved.value().predicted_active_fraction + 0.01);
  EXPECT_LT(metrics.miss_fraction(), 0.01);
}

}  // namespace
}  // namespace ripple
