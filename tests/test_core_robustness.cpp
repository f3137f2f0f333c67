#include "core/robustness.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "blast/canonical.hpp"
#include "core/waterfill.hpp"

namespace ripple::core {
namespace {

EnforcedWaitsStrategy blast_strategy() {
  return EnforcedWaitsStrategy(blast::canonical_blast_pipeline(),
                               EnforcedWaitsConfig{blast::paper_calibrated_b()});
}

const ConstraintSlack& find_slack(const ScheduleSensitivity& sensitivity,
                                  const std::string& label) {
  for (const auto& slack : sensitivity.slacks) {
    if (slack.label == label) return slack;
  }
  throw std::logic_error("slack not found: " + label);
}

TEST(Sensitivity, InfeasiblePointFails) {
  const auto strategy = blast_strategy();
  auto result = analyze_sensitivity(strategy, 1.0, 3.5e5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "infeasible");
}

TEST(Sensitivity, DeadlineAlwaysActive) {
  const auto strategy = blast_strategy();
  for (double tau0 : {10.0, 50.0, 100.0}) {
    auto result = analyze_sensitivity(strategy, tau0, 1.85e5);
    ASSERT_TRUE(result.ok()) << tau0;
    EXPECT_TRUE(find_slack(result.value(), "deadline").active) << tau0;
  }
}

TEST(Sensitivity, MultiplierMatchesFiniteDifference) {
  const auto strategy = blast_strategy();
  for (double tau0 : {50.0, 100.0}) {
    for (double deadline : {1e5, 2e5, 3.5e5}) {
      auto result = analyze_sensitivity(strategy, tau0, deadline);
      ASSERT_TRUE(result.ok());
      const double h = 500.0;
      auto lo = strategy.solve(tau0, deadline - h);
      auto hi = strategy.solve(tau0, deadline + h);
      ASSERT_TRUE(lo.ok() && hi.ok());
      const double fd = (lo.value().predicted_active_fraction -
                         hi.value().predicted_active_fraction) /
                        (2.0 * h);
      EXPECT_NEAR(result.value().deadline_multiplier, fd,
                  0.05 * fd + 1e-10)
          << tau0 << " " << deadline;
    }
  }
}

TEST(Sensitivity, MultiplierIsThePooledLambda) {
  // b = (1,2,3,2), the b most calibrations of the Table-1 pipeline settle
  // on, where the chain couplings bind over the whole grid: the multiplier
  // is the exact budget multiplier of the full problem, lambda / N.
  const auto pipeline = blast::canonical_blast_pipeline();
  const std::vector<double> b{1.0, 2.0, 3.0, 2.0};
  const EnforcedWaitsStrategy strategy(pipeline, EnforcedWaitsConfig{b});
  int cells = 0;
  for (double tau0 : {5.0, 20.0, 50.0, 100.0}) {
    for (double deadline : {5e4, 1e5, 1.85e5, 3.5e5}) {
      auto result = analyze_sensitivity(strategy, tau0, deadline);
      if (!result.ok()) continue;
      auto pooled = waterfill_solve_pooled(pipeline, b, tau0, deadline);
      ASSERT_TRUE(pooled.ok()) << tau0 << " " << deadline;
      EXPECT_DOUBLE_EQ(result.value().deadline_multiplier,
                       pooled.value().lambda / 4.0)
          << tau0 << " " << deadline;
      ++cells;
    }
  }
  EXPECT_GE(cells, 12);
}

TEST(Sensitivity, ExactWhenChainInactive) {
  const auto strategy = blast_strategy();
  // Here the chain-free water-filling optimum is already chain-feasible, so
  // its multiplier is exact too and the two agree.
  auto result = analyze_sensitivity(strategy, 100.0, 3.5e5);
  ASSERT_TRUE(result.ok());
  auto relaxed = waterfill_solve(strategy.pipeline(), strategy.config().b,
                                 100.0, 3.5e5);
  ASSERT_TRUE(relaxed.ok());
  ASSERT_TRUE(relaxed.value().chain_feasible);
  const double expected = relaxed.value().lambda / 4.0;
  EXPECT_GT(result.value().deadline_multiplier, 0.0);
  EXPECT_NEAR(result.value().deadline_multiplier, expected, 1e-12 * expected);
}

TEST(Sensitivity, MultiplierFallsWithDeadline) {
  // Diminishing returns: the marginal value of deadline shrinks as D grows.
  const auto strategy = blast_strategy();
  auto tight = analyze_sensitivity(strategy, 100.0, 5e4);
  auto slack = analyze_sensitivity(strategy, 100.0, 3.5e5);
  ASSERT_TRUE(tight.ok() && slack.ok());
  EXPECT_GT(tight.value().deadline_multiplier,
            slack.value().deadline_multiplier);
}

TEST(Sensitivity, RateBottleneckAtSmallTau0) {
  const auto strategy = blast_strategy();
  // tau0 = 3: x_0 pinned to v*tau0 = 384.
  auto result = analyze_sensitivity(strategy, 3.0, 3.5e5);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(find_slack(result.value(), "rate").active);
  EXPECT_EQ(result.value().bottleneck, "rate");
}

TEST(Sensitivity, DeadlineBottleneckAtLargeTau0) {
  const auto strategy = blast_strategy();
  auto result = analyze_sensitivity(strategy, 100.0, 1e5);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(find_slack(result.value(), "rate").active);
  EXPECT_EQ(result.value().bottleneck, "deadline");
}

TEST(Sensitivity, SlackValuesNonNegativeAtOptimum) {
  const auto strategy = blast_strategy();
  auto result = analyze_sensitivity(strategy, 20.0, 1.85e5);
  ASSERT_TRUE(result.ok());
  for (const auto& slack : result.value().slacks) {
    EXPECT_GE(slack.slack, -1e-6) << slack.label;
  }
  // Slack count: rate + deadline + 3 chains + 4 waits.
  EXPECT_EQ(result.value().slacks.size(), 9u);
}

}  // namespace
}  // namespace ripple::core
