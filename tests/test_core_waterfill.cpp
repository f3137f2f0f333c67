#include "core/waterfill.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "blast/canonical.hpp"
#include "core/enforced_waits.hpp"
#include "dist/rng.hpp"
#include "opt/barrier.hpp"
#include "sdf/analysis.hpp"

namespace ripple::core {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

TEST(Waterfill, InfeasibleCases) {
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  // Rate cap below t_0's chain-free lower bound (t_0 = 287, v*tau0 = 128).
  auto rate = waterfill_solve(pipeline, b, 1.0, 1e6);
  ASSERT_FALSE(rate.ok());
  EXPECT_EQ(rate.error().code, "infeasible");
  // Deadline below even sum b_i t_i.
  auto deadline = waterfill_solve(pipeline, b, 50.0, 1000.0);
  ASSERT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.error().code, "infeasible");
}

TEST(Waterfill, BudgetBindsExactly) {
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  auto solved = waterfill_solve(pipeline, b, 100.0, 3.5e5);
  ASSERT_TRUE(solved.ok());
  double budget = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    budget += b[i] * solved.value().firing_intervals[i];
  }
  EXPECT_NEAR(budget, 3.5e5, 1e-4);
  EXPECT_GT(solved.value().lambda, 0.0);
}

TEST(Waterfill, UnclampedComponentsFollowSqrtLaw) {
  // Interior components satisfy x_i = sqrt(t_i / (lambda * b_i)).
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  auto solved = waterfill_solve(pipeline, b, 100.0, 3.5e5);
  ASSERT_TRUE(solved.ok());
  const auto& x = solved.value().firing_intervals;
  const double lambda = solved.value().lambda;
  const double rate_cap = 128.0 * 100.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const bool at_lower = std::fabs(x[i] - pipeline.service_time(i)) < 1e-6;
    const bool at_upper = (i == 0) && std::fabs(x[i] - rate_cap) < 1e-6;
    if (!at_lower && !at_upper) {
      EXPECT_NEAR(x[i], std::sqrt(pipeline.service_time(i) / (lambda * b[i])),
                  1e-6 * x[i])
          << i;
    }
  }
}

TEST(Waterfill, MatchesHandComputedOptimum) {
  // The DESIGN.md hand computation: tau0 = 100, D = 3.5e5 gives an active
  // fraction near 0.049 with x_0 clamped at the 12800 rate cap.
  const auto pipeline = blast_pipeline();
  auto solved = waterfill_solve(pipeline, blast::paper_calibrated_b(), 100.0,
                                3.5e5);
  ASSERT_TRUE(solved.ok());
  EXPECT_TRUE(solved.value().chain_feasible);
  EXPECT_NEAR(solved.value().firing_intervals[0], 12800.0, 1.0);
  EXPECT_NEAR(solved.value().active_fraction, 0.049, 0.002);
}

TEST(Waterfill, AgreesWithBarrierWhenChainInactive) {
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  const EnforcedWaitsStrategy strategy(pipeline, EnforcedWaitsConfig{b});
  for (double tau0 : {30.0, 50.0, 100.0}) {
    for (double deadline : {5e4, 1.2e5, 3.5e5}) {
      auto filled = waterfill_solve(pipeline, b, tau0, deadline);
      ASSERT_TRUE(filled.ok()) << tau0 << " " << deadline;
      if (!filled.value().chain_feasible) continue;
      // Compare against a direct barrier solve of the full problem.
      const auto problem = strategy.build_problem(tau0, deadline);
      const auto start = strategy.interior_start(tau0, deadline);
      ASSERT_FALSE(start.empty());
      auto barrier = opt::barrier_minimize(problem, start);
      ASSERT_TRUE(barrier.ok()) << tau0 << " " << deadline;
      EXPECT_NEAR(filled.value().active_fraction, barrier.value().objective,
                  1e-5)
          << tau0 << " " << deadline;
    }
  }
}

TEST(Waterfill, DetectsChainActiveRegion) {
  // Small tau0 forces x_0 to the rate cap and the chain constraint on x_1
  // becomes active: the relaxed optimum must self-report chain violation.
  const auto pipeline = blast_pipeline();
  auto solved = waterfill_solve(pipeline, blast::paper_calibrated_b(), 5.0,
                                3.5e5);
  ASSERT_TRUE(solved.ok());
  EXPECT_FALSE(solved.value().chain_feasible);
}

TEST(Waterfill, SingleNodeSlackBudget) {
  auto spec = sdf::PipelineBuilder("solo")
                  .simd_width(4)
                  .add_node("only", 10.0, dist::make_deterministic(1))
                  .build();
  const auto pipeline = std::move(spec).take();
  // Budget is slack: D = 1000 but the rate cap limits x to 4 * 20 = 80.
  auto solved = waterfill_solve(pipeline, {1.0}, 20.0, 1000.0);
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.value().firing_intervals[0], 80.0, 1e-9);
  EXPECT_DOUBLE_EQ(solved.value().lambda, 0.0);
}

TEST(WaterfillChained, AllInactiveReducesToPlainWaterfillBitExactly) {
  // With an empty active set every block is a singleton with ratio 1.0, and
  // multiplying/dividing by 1.0 is exact in IEEE arithmetic — so the chained
  // solver must reproduce the plain one bit for bit, not merely closely.
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  for (double tau0 : {30.0, 100.0}) {
    for (double deadline : {5e4, 3.5e5}) {
      auto plain = waterfill_solve(pipeline, b, tau0, deadline);
      auto chained = waterfill_solve_chained(
          pipeline, b, tau0, deadline, std::vector<std::uint8_t>(4, 0));
      ASSERT_EQ(plain.ok(), chained.ok());
      if (!plain.ok()) continue;
      EXPECT_EQ(plain.value().lambda, chained.value().lambda);
      EXPECT_EQ(plain.value().active_fraction, chained.value().active_fraction);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(plain.value().firing_intervals[i],
                  chained.value().firing_intervals[i]);
      }
    }
  }
}

TEST(WaterfillChained, ActiveSetReproducesTheFullSolverExactly) {
  // In the chain-active region, the chained closed form on the pooled
  // solve's active set is exactly what solve() returns, bit for bit.
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  const EnforcedWaitsStrategy strategy(pipeline, EnforcedWaitsConfig{b});
  auto full = strategy.solve(5.0, 3.5e5);
  ASSERT_TRUE(full.ok());
  auto pooled = waterfill_solve_pooled(pipeline, b, 5.0, 3.5e5);
  ASSERT_TRUE(pooled.ok());
  const auto& active = pooled.value().chain_active;
  ASSERT_TRUE(std::any_of(active.begin(), active.end(),
                          [](std::uint8_t a) { return a != 0; }));
  auto chained = waterfill_solve_chained(pipeline, b, 5.0, 3.5e5, active);
  ASSERT_TRUE(chained.ok());
  EXPECT_TRUE(chained.value().chain_feasible);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(full.value().firing_intervals[i],
              chained.value().firing_intervals[i]);
  }
}

TEST(WaterfillPooled, ChainFreeOptimumPoolsNothing) {
  // Where the chain-free optimum already satisfies the chain, no pool forms
  // and the pooled solve returns the plain water-filling bits.
  const auto pipeline = blast_pipeline();
  const auto b = blast::paper_calibrated_b();
  auto plain = waterfill_solve(pipeline, b, 100.0, 3.5e5);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain.value().chain_feasible);
  auto pooled = waterfill_solve_pooled(pipeline, b, 100.0, 3.5e5);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.value().chain_active, std::vector<std::uint8_t>(4, 0));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plain.value().firing_intervals[i],
              pooled.value().firing_intervals[i]);
  }
}

TEST(WaterfillChained, LambdaZeroWithMergedBlock) {
  // Two unit-gain nodes chained into one block whose representative clamps
  // at the rate cap with budget to spare: the degenerate lambda = 0 branch,
  // exercised through the block machinery rather than a singleton.
  auto spec = sdf::PipelineBuilder("pair")
                  .simd_width(4)
                  .add_node("a", 10.0, dist::make_deterministic(1))
                  .add_node("b", 10.0, dist::make_deterministic(1))
                  .build();
  ASSERT_TRUE(spec.ok());
  const auto pipeline = std::move(spec).take();
  auto solved = waterfill_solve_chained(pipeline, {1.0, 1.0}, 5.0, 1000.0,
                                        {0, 1});
  ASSERT_TRUE(solved.ok());
  EXPECT_DOUBLE_EQ(solved.value().lambda, 0.0);
  // Rate cap v * tau0 = 20 binds the merged block: x_0 = x_1 = 20.
  EXPECT_NEAR(solved.value().firing_intervals[0], 20.0, 1e-9);
  EXPECT_NEAR(solved.value().firing_intervals[1], 20.0, 1e-9);
}

/// Property: across random pipelines, whenever the water-filled point is
/// chain-feasible it matches the strategy's solve(), and otherwise it never
/// does worse (it solves a relaxation).
class WaterfillRandom : public ::testing::TestWithParam<int> {};

TEST_P(WaterfillRandom, ConsistentWithFullSolver) {
  dist::Xoshiro256 rng(1000 + GetParam());
  sdf::PipelineBuilder builder("random");
  builder.simd_width(64);
  const std::size_t n = 2 + rng.uniform_below(4);
  std::vector<double> b;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = 50.0 + rng.uniform01() * 2000.0;
    const double gain = 0.05 + rng.uniform01() * 1.5;
    builder.add_node("n" + std::to_string(i), t,
                     i + 1 == n ? dist::make_deterministic(1)
                                : dist::make_censored_poisson(gain, 16));
    b.push_back(1.0 + rng.uniform_below(6));
  }
  auto spec = builder.build();
  ASSERT_TRUE(spec.ok());
  const auto pipeline = std::move(spec).take();
  const EnforcedWaitsStrategy strategy(pipeline, EnforcedWaitsConfig{b});

  const double tau0 = 20.0 + rng.uniform01() * 80.0;
  const double deadline =
      sdf::minimal_deadline_budget(pipeline, b) * (1.5 + rng.uniform01() * 4.0);
  if (!strategy.is_feasible(tau0, deadline)) GTEST_SKIP();

  auto filled = waterfill_solve(pipeline, b, tau0, deadline);
  ASSERT_TRUE(filled.ok());
  auto full = strategy.solve(tau0, deadline);
  ASSERT_TRUE(full.ok());
  if (filled.value().chain_feasible) {
    EXPECT_NEAR(filled.value().active_fraction,
                full.value().predicted_active_fraction, 1e-6);
  } else {
    // Relaxation bound: the chain-free optimum can only be better or equal.
    EXPECT_LE(filled.value().active_fraction,
              full.value().predicted_active_fraction + 1e-9);
  }
  EXPECT_TRUE(full.value().kkt.satisfied(1e-3));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterfillRandom, ::testing::Range(0, 25));

}  // namespace
}  // namespace ripple::core
