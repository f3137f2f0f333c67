#include "calib/calibrate.hpp"

#include <gtest/gtest.h>

#include "blast/canonical.hpp"
#include "core/enforced_waits.hpp"

namespace ripple::calib {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

CalibrationOptions fast_options() {
  CalibrationOptions options;
  options.trials = 10;            // reduced from the paper's 100 for test speed
  options.inputs_per_trial = 5000;  // reduced from 50000
  options.target_miss_free = 0.9;
  options.max_rounds = 24;
  options.base_seed = 2024;
  return options;
}

TEST(DefaultProbes, CoverPaperCorners) {
  const auto probes = default_probes();
  ASSERT_GE(probes.size(), 4u);
  bool fast_slack = false;
  bool slow_tight = false;
  for (const Probe& probe : probes) {
    if (probe.tau0 <= 1.0 && probe.deadline >= 3.5e5) fast_slack = true;
    if (probe.tau0 >= 100.0 && probe.deadline <= 2e4) slow_tight = true;
  }
  EXPECT_TRUE(fast_slack);
  EXPECT_TRUE(slow_tight);
}

TEST(CalibrateEnforced, RequiresProbes) {
  EXPECT_THROW((void)calibrate_enforced_waits(
                   blast_pipeline(),
                   core::EnforcedWaitsConfig::optimistic(blast_pipeline()), {},
                   fast_options()),
               std::logic_error);
}

TEST(CalibrateEnforced, PaperParametersAlreadyPass) {
  // With the paper's calibrated b = {1,3,9,6}, the loop should accept
  // immediately (round 0) on a mid-grid probe set.
  const std::vector<Probe> probes = {{10.0, 1.85e5}, {50.0, 1.85e5},
                                     {20.0, 1e5}};
  const auto result = calibrate_enforced_waits(
      blast_pipeline(),
      core::EnforcedWaitsConfig{blast::paper_calibrated_b()}, probes,
      fast_options());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_EQ(result.config.b, blast::paper_calibrated_b());
  EXPECT_GE(result.worst_miss_free, 0.9);
}

TEST(CalibrateEnforced, RaisesFromOptimisticStart) {
  // The paper's optimistic start (b_i = ceil(g_i)) missed frequently and had
  // to be raised; our loop must do the same and end with larger multipliers.
  // Probes sit at moderately tight deadlines where optimistic multipliers
  // let the optimizer over-stretch the firing intervals.
  const std::vector<Probe> probes = {{10.0, 6e4}, {20.0, 6e4}};
  CalibrationOptions options = fast_options();
  options.inputs_per_trial = 10000;
  const auto initial = core::EnforcedWaitsConfig::optimistic(blast_pipeline());
  const auto result =
      calibrate_enforced_waits(blast_pipeline(), initial, probes, options);
  EXPECT_TRUE(result.success) << result.log.back();
  double initial_sum = 0.0;
  double final_sum = 0.0;
  for (std::size_t i = 0; i < initial.b.size(); ++i) {
    initial_sum += initial.b[i];
    final_sum += result.config.b[i];
  }
  EXPECT_GT(final_sum, initial_sum);
  EXPECT_GE(result.worst_miss_free, options.target_miss_free);
  EXPECT_FALSE(result.log.empty());
}

TEST(CalibrateEnforced, InfeasibleProbesReported) {
  // All probes infeasible (deadline below minimal budget): no rounds help.
  const std::vector<Probe> probes = {{50.0, 1e4}};
  const auto result = calibrate_enforced_waits(
      blast_pipeline(),
      core::EnforcedWaitsConfig{blast::paper_calibrated_b()}, probes,
      fast_options());
  EXPECT_FALSE(result.success);
  ASSERT_FALSE(result.final_outcomes.empty());
  EXPECT_FALSE(result.final_outcomes[0].feasible);
}

TEST(CalibrateMonolithic, UnitParametersSuffice) {
  // Paper: "we observed no deadline misses in simulation even with b=1, S=1".
  const std::vector<Probe> probes = {{20.0, 1.85e5}, {50.0, 1e5},
                                     {100.0, 3.5e5}};
  const auto result = calibrate_monolithic(blast_pipeline(), {}, probes,
                                           fast_options());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 1);
  EXPECT_DOUBLE_EQ(result.config.b, 1.0);
  EXPECT_DOUBLE_EQ(result.config.S, 1.0);
}

TEST(CalibrateMonolithic, ReportsPerProbeOutcomes) {
  const std::vector<Probe> probes = {{20.0, 1.85e5}, {5.0, 1.85e5}};
  const auto result = calibrate_monolithic(blast_pipeline(), {}, probes,
                                           fast_options());
  ASSERT_EQ(result.final_outcomes.size(), 2u);
  EXPECT_TRUE(result.final_outcomes[0].feasible);
  EXPECT_FALSE(result.final_outcomes[1].feasible);  // tau0=5 is unstable
  EXPECT_GT(result.final_outcomes[0].mean_active_fraction, 0.0);
}

TEST(CalibrateMonolithic, GivesUpWhenNothingFeasible) {
  const std::vector<Probe> probes = {{5.0, 1.85e5}};  // unstable for monolithic
  const auto result = calibrate_monolithic(blast_pipeline(), {}, probes,
                                           fast_options());
  EXPECT_FALSE(result.success);
}

}  // namespace
}  // namespace ripple::calib
