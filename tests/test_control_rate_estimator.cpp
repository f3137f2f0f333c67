// RateEstimator: prior pinning, items-over-span convergence, the relative
// standard error, and checkpoint/restore determinism — the properties the
// closed-loop convergence and journal recovery tests lean on.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "control/rate_estimator.hpp"

namespace ripple::control {
namespace {

void expect_same_estimate(const RateEstimator& a, const RateEstimator& b) {
  const RateEstimate ea = a.estimate();
  const RateEstimate eb = b.estimate();
  ASSERT_EQ(ea.tau0, eb.tau0);
  ASSERT_EQ(ea.relative_se, eb.relative_se);
  ASSERT_EQ(a.warm(), b.warm());
  ASSERT_EQ(a.samples(), b.samples());
}

void expect_same_checkpoint(const RateEstimatorCheckpoint& a,
                            const RateEstimatorCheckpoint& b) {
  EXPECT_EQ(a.prior, b.prior);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.window, b.window);
}

TEST(RateEstimatorTest, ReportsPriorUntilWarm) {
  RateEstimatorConfig config;
  config.min_samples = 8;
  RateEstimator estimator(40.0, config);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 40.0);
  EXPECT_FALSE(estimator.warm());
  for (int i = 0; i < 7; ++i) {
    estimator.observe_group(10.0, 1);
    EXPECT_DOUBLE_EQ(estimator.tau0(), 40.0) << "still cold at group " << i;
  }
  estimator.observe_group(10.0, 1);
  EXPECT_TRUE(estimator.warm());
  EXPECT_DOUBLE_EQ(estimator.tau0(), 10.0);  // items over span, no lag
}

TEST(RateEstimatorTest, ConvergesToConstantGap) {
  RateEstimator estimator(100.0, {});
  for (int i = 0; i < 4000; ++i) estimator.observe_group(25.0, 1);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 25.0);
  EXPECT_NEAR(estimator.rate(), 1.0 / 25.0, 1e-12);
  EXPECT_EQ(estimator.estimate().relative_se, 0.0);

  // 64-item frames at one frame per 1600 cycles are the same rate: the
  // frame's 63 simultaneous items count, they do not read as zero gaps.
  RateEstimator framed(100.0, {});
  for (int i = 0; i < 4000; ++i) framed.observe_group(1600.0, 64);
  EXPECT_DOUBLE_EQ(framed.tau0(), 25.0);
  EXPECT_EQ(framed.estimate().relative_se, 0.0);
}

TEST(RateEstimatorTest, ItemsOverSpan) {
  RateEstimatorConfig config;
  config.min_samples = 1;
  RateEstimator estimator(50.0, config);
  estimator.observe_group(640.0, 64);
  estimator.observe_group(1280.0, 64);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 1920.0 / 128.0);
  // Residuals g_i - R c_i = -320, +320: sd(R)/R = sqrt(2 * 320^2 * 2) / 1920.
  EXPECT_NEAR(estimator.estimate().relative_se,
              std::sqrt(4.0 * 320.0 * 320.0) / 1920.0, 1e-15);
}

TEST(RateEstimatorTest, TracksStepChange) {
  RateEstimator estimator(40.0, {});
  for (int i = 0; i < 2000; ++i) estimator.observe_group(40.0, 1);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 40.0);
  // The window holds 256 groups: once they are all new, so is the estimate.
  for (int i = 0; i < 256; ++i) estimator.observe_group(20.0, 1);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 20.0);
}

TEST(RateEstimatorTest, ClampsNonPositiveGaps) {
  RateEstimator estimator(10.0, {});
  estimator.observe_group(0.0, 1);
  estimator.observe_group(-5.0, 1);
  EXPECT_EQ(estimator.samples(), 2u);
  // A stamp behind its predecessor adds items, never negative span.
  EXPECT_EQ(estimator.checkpoint().window[1].gap, 0.0);
  for (int i = 0; i < 100; ++i) estimator.observe_group(10.0, 1);
  EXPECT_GT(estimator.tau0(), 0.0);

  // A window of simultaneous arrivals reads as an extreme rate, never as a
  // zero or undefined inter-arrival time.
  RateEstimatorConfig config;
  config.min_samples = 1;
  RateEstimator simultaneous(10.0, config);
  for (int i = 0; i < 4; ++i) simultaneous.observe_group(0.0, 8);
  EXPECT_GT(simultaneous.tau0(), 0.0);
  EXPECT_LT(simultaneous.tau0(), 1e-6);
}

TEST(RateEstimatorTest, DeterministicAcrossInstances) {
  RateEstimator a(30.0, {});
  RateEstimator b(30.0, {});
  const Cycles gaps[] = {10.0, 80.0, 25.0, 3.0, 44.0, 17.5};
  for (int round = 0; round < 500; ++round) {
    for (const Cycles gap : gaps) {
      const auto count = static_cast<std::uint64_t>(1 + round % 7);
      a.observe_group(gap, count);
      b.observe_group(gap, count);
    }
    expect_same_estimate(a, b);
  }
  expect_same_checkpoint(a.checkpoint(), b.checkpoint());
}

TEST(RateEstimatorTest, ResetRestoresPrior) {
  RateEstimator estimator(60.0, {});
  for (int i = 0; i < 200; ++i) estimator.observe_group(5.0, 1);
  EXPECT_NE(estimator.tau0(), 60.0);
  estimator.reset(75.0);
  EXPECT_DOUBLE_EQ(estimator.tau0(), 75.0);
  EXPECT_EQ(estimator.samples(), 0u);
  EXPECT_FALSE(estimator.warm());
  EXPECT_TRUE(estimator.checkpoint().window.empty());
}

TEST(RateEstimatorTest, CheckpointRestoreContinuesBitIdentically) {
  RateEstimatorConfig config;
  config.window = 13;  // non-power-of-two: exercises the modular rotation
  config.min_samples = 5;
  RateEstimator live(42.0, config);
  // Enough groups to wrap the window more than twice, so the checkpoint must
  // capture mid-rotation state, not just a fresh prefix.
  for (int i = 1; i <= 31; ++i) {
    live.observe_group(static_cast<Cycles>(3 + (i * 7) % 11),
                       static_cast<std::uint64_t>(1 + i % 4));
  }

  const RateEstimatorCheckpoint state = live.checkpoint();
  EXPECT_EQ(state.groups, 31u);
  EXPECT_EQ(state.window.size(), 13u);

  RateEstimator restored(999.0, config);  // different prior: must be replaced
  restored.restore(state);
  expect_same_estimate(restored, live);
  expect_same_checkpoint(restored.checkpoint(), state);

  // Feeding both the same tail keeps them bit-identical.
  const Cycles tail[] = {2.5, 80.0, 14.0, 1.0, 33.0};
  for (int round = 0; round < 40; ++round) {
    for (const Cycles gap : tail) {
      const auto count = static_cast<std::uint64_t>(1 + round % 3);
      live.observe_group(gap, count);
      restored.observe_group(gap, count);
      expect_same_estimate(restored, live);
    }
  }
  expect_same_checkpoint(restored.checkpoint(), live.checkpoint());
}

TEST(RateEstimatorTest, CheckpointRestoreBeforeWindowFills) {
  RateEstimatorConfig config;
  config.window = 16;
  config.min_samples = 8;
  RateEstimator live(50.0, config);
  for (int i = 0; i < 5; ++i) live.observe_group(10.0 + i, 2);

  const RateEstimatorCheckpoint state = live.checkpoint();
  EXPECT_EQ(state.window.size(), 5u);  // only the observed prefix is retained

  RateEstimator restored(50.0, config);
  restored.restore(state);
  EXPECT_FALSE(restored.warm());  // still cold, exactly like the original
  EXPECT_DOUBLE_EQ(restored.tau0(), 50.0);
  expect_same_checkpoint(restored.checkpoint(), state);
  // Warmup completes at the same group count as the live estimator.
  for (int i = 0; i < 3; ++i) {
    live.observe_group(12.0, 1);
    restored.observe_group(12.0, 1);
  }
  EXPECT_TRUE(restored.warm());
  expect_same_estimate(restored, live);
}

TEST(RateEstimatorTest, RestoreRejectsInconsistentCheckpoints) {
  RateEstimatorConfig config;
  config.window = 8;
  RateEstimator estimator(10.0, config);

  RateEstimatorCheckpoint bad_prior;
  bad_prior.prior = 0.0;
  EXPECT_THROW(estimator.restore(bad_prior), std::logic_error);

  RateEstimatorCheckpoint oversized;
  oversized.prior = 10.0;
  oversized.groups = 20;
  oversized.window.assign(9, ArrivalGroup{1.0, 1});  // larger than the window
  EXPECT_THROW(estimator.restore(oversized), std::logic_error);

  RateEstimatorCheckpoint mismatched;
  mismatched.prior = 10.0;
  mismatched.groups = 3;
  mismatched.window.assign(5, ArrivalGroup{1.0, 1});  // claims 3, carries 5
  EXPECT_THROW(estimator.restore(mismatched), std::logic_error);

  RateEstimatorCheckpoint empty_group;
  empty_group.prior = 10.0;
  empty_group.groups = 2;
  empty_group.window = {ArrivalGroup{1.0, 1}, ArrivalGroup{1.0, 0}};
  EXPECT_THROW(estimator.restore(empty_group), std::logic_error);
}

TEST(RateEstimatorTest, RejectsBadConfig) {
  EXPECT_THROW(RateEstimator(0.0, {}), std::logic_error);
  RateEstimatorConfig bad_window;
  bad_window.window = 0;
  EXPECT_THROW(RateEstimator(10.0, bad_window), std::logic_error);
  RateEstimator estimator(10.0, {});
  EXPECT_THROW(estimator.observe_group(5.0, 0), std::logic_error);
}

}  // namespace
}  // namespace ripple::control
