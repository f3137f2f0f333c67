#include "core/monolithic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "blast/canonical.hpp"
#include "dist/rng.hpp"
#include "sdf/analysis.hpp"

namespace ripple::core {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

TEST(Config, RejectsSubUnitParameters) {
  EXPECT_THROW(MonolithicStrategy(blast_pipeline(), {0.5, 1.0}),
               std::logic_error);
  EXPECT_THROW(MonolithicStrategy(blast_pipeline(), {1.0, 0.9}),
               std::logic_error);
}

TEST(BlockService, HandComputedValues) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  // M = 100: ceil(100/128)=1, ceil(37.9/128)=1, ceil(72.8/128)=1,
  // ceil(2.42/128)=1 -> 287+955+402+2753 = 4397.
  EXPECT_DOUBLE_EQ(strategy.mean_block_service(100), 4397.0);
  // M = 128: stage 0 exactly one full vector.
  EXPECT_DOUBLE_EQ(strategy.mean_block_service(128), 4397.0);
  // M = 129: stage 0 spills into a second firing.
  EXPECT_DOUBLE_EQ(strategy.mean_block_service(129), 4397.0 + 287.0);
}

TEST(BlockService, AsymptoticPerItemCostMatchesAnalysis) {
  const auto pipeline = blast_pipeline();
  const MonolithicStrategy strategy(pipeline, {});
  const std::int64_t m = 10'000'000;
  EXPECT_NEAR(strategy.mean_block_service(m) / static_cast<double>(m),
              pipeline.mean_service_per_input(), 1e-3);
}

TEST(BlockService, RejectsNonPositiveBlock) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  EXPECT_THROW((void)strategy.mean_block_service(0), std::logic_error);
}

TEST(Feasibility, StabilityExcludesFastArrivals) {
  const auto pipeline = blast_pipeline();
  const MonolithicStrategy strategy(pipeline, {});
  // Stability limit: tau0 >= mean service per input ~ 7.87.
  const double tau_min = sdf::min_interarrival_monolithic(pipeline);
  EXPECT_FALSE(strategy.is_feasible(tau_min * 0.9, 1e9));
  EXPECT_TRUE(strategy.is_feasible(tau_min * 1.3, 1e9));
}

TEST(Feasibility, SmallBlockStabilityIsWorseThanAsymptotic) {
  // At tau0 slightly above the asymptotic limit, small blocks are still
  // unstable (ceil overhead) but large ones work.
  const MonolithicStrategy strategy(blast_pipeline(), {});
  const double tau0 = 9.0;
  EXPECT_FALSE(strategy.is_block_feasible(10, tau0, 1e9));
  EXPECT_TRUE(strategy.is_block_feasible(5000, tau0, 1e9));
}

TEST(MaxBlockSize, ScalesWithDeadline) {
  // Cap formula: M <= D / (b*tau0 + S*c) with c the per-input service floor.
  const auto pipeline = blast_pipeline();
  const MonolithicStrategy strategy(pipeline, {});
  const double c = pipeline.mean_service_per_input();
  EXPECT_EQ(strategy.max_block_size(10.0, 2e4),
            static_cast<std::int64_t>(2e4 / (10.0 + c)));
  EXPECT_EQ(strategy.max_block_size(10.0, 3.5e5),
            static_cast<std::int64_t>(3.5e5 / (10.0 + c)));
  const MonolithicStrategy doubled(pipeline, {2.0, 1.0});
  EXPECT_EQ(doubled.max_block_size(10.0, 2e4),
            static_cast<std::int64_t>(2e4 / (20.0 + c)));
  const MonolithicStrategy scaled(pipeline, {1.0, 2.0});
  EXPECT_EQ(scaled.max_block_size(10.0, 2e4),
            static_cast<std::int64_t>(2e4 / (10.0 + 2.0 * c)));
}

TEST(MaxBlockSize, TightenedCapNeverCutsAFeasibleBlock) {
  // The cap only drops deadline-infeasible blocks: above it,
  // is_block_feasible must be false; the argmin over the loose cap
  // D/(b*tau0) therefore equals the argmin over the tight cap. Checked
  // across the paper grid corners used by Figures 3/4.
  const MonolithicStrategy strategy(blast_pipeline(), {});
  for (double tau0 : {10.0, 25.0, 50.0, 100.0}) {
    for (double deadline : {2e4, 1e5, 2.3e5, 3.5e5}) {
      const std::int64_t tight = strategy.max_block_size(tau0, deadline);
      const std::int64_t loose = static_cast<std::int64_t>(deadline / tau0);
      ASSERT_LE(tight, loose);
      for (std::int64_t m = tight + 1; m <= loose; ++m) {
        ASSERT_FALSE(strategy.is_block_feasible(m, tau0, deadline))
            << "block " << m << " feasible above the tightened cap at tau0="
            << tau0 << " D=" << deadline;
      }
      double best = 2.0;
      std::int64_t best_m = 0;
      for (std::int64_t m = 1; m <= loose; ++m) {
        if (!strategy.is_block_feasible(m, tau0, deadline)) continue;
        const double value = strategy.active_fraction(m, tau0);
        if (value < best) {
          best = value;
          best_m = m;
        }
      }
      auto solved = strategy.solve(tau0, deadline);
      ASSERT_EQ(solved.ok(), best_m != 0) << tau0 << " " << deadline;
      if (solved.ok()) {
        EXPECT_EQ(solved.value().block_size, best_m);
        EXPECT_DOUBLE_EQ(solved.value().predicted_active_fraction, best);
      }
    }
  }
}

TEST(Solve, InfeasibleWhenDeadlineAdmitsNoBlock) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  auto solved = strategy.solve(100.0, 50.0);  // b*tau0 = 100 > D
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.error().code, "infeasible");
}

TEST(Solve, InfeasibleWhenUnstable) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  auto solved = strategy.solve(5.0, 3.5e5);  // below stability limit
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.error().code, "infeasible");
}

TEST(Solve, ScheduleSatisfiesBothConstraints) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  for (double tau0 : {10.0, 20.0, 50.0, 100.0}) {
    for (double deadline : {2e4, 1e5, 3.5e5}) {
      auto solved = strategy.solve(tau0, deadline);
      // Some corners are genuinely infeasible (e.g. tau0=10, D=2e4: the
      // block big enough for stability no longer fits the deadline); the
      // solver's verdict must then agree with the exhaustive test.
      ASSERT_EQ(solved.ok(), strategy.is_feasible(tau0, deadline))
          << tau0 << " " << deadline;
      if (!solved.ok()) continue;
      const auto& schedule = solved.value();
      EXPECT_TRUE(strategy.is_block_feasible(schedule.block_size, tau0, deadline));
      EXPECT_LE(schedule.mean_block_service,
                static_cast<double>(schedule.block_size) * tau0 + 1e-9);
      EXPECT_LE(schedule.worst_case_latency, deadline + 1e-6);
      EXPECT_NEAR(schedule.predicted_active_fraction,
                  schedule.mean_block_service /
                      (static_cast<double>(schedule.block_size) * tau0),
                  1e-12);
    }
  }
}

TEST(Solve, ScanIsExact) {
  // Verify optimality against a brute-force re-scan at one point.
  const MonolithicStrategy strategy(blast_pipeline(), {});
  const double tau0 = 25.0;
  const double deadline = 1e5;
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok());
  double best = 1e9;
  for (std::int64_t m = 1; m <= strategy.max_block_size(tau0, deadline); ++m) {
    if (!strategy.is_block_feasible(m, tau0, deadline)) continue;
    best = std::min(best, strategy.active_fraction(m, tau0));
  }
  EXPECT_DOUBLE_EQ(solved.value().predicted_active_fraction, best);
}

TEST(Solve, ActiveFractionDecreasesWithTau0) {
  // Paper Figure 3: monolithic utilization scales inversely with tau0.
  const MonolithicStrategy strategy(blast_pipeline(), {});
  auto at20 = strategy.solve(20.0, 3.5e5);
  auto at100 = strategy.solve(100.0, 3.5e5);
  ASSERT_TRUE(at20.ok());
  ASSERT_TRUE(at100.ok());
  EXPECT_GT(at20.value().predicted_active_fraction,
            3.0 * at100.value().predicted_active_fraction);
}

TEST(Solve, ActiveFractionNearlyInsensitiveToDeadlineWhenLarge) {
  // Paper Figure 3: monolithic utilization tends to a constant in D.
  const MonolithicStrategy strategy(blast_pipeline(), {});
  auto d1 = strategy.solve(50.0, 2e5);
  auto d2 = strategy.solve(50.0, 3.5e5);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  EXPECT_NEAR(d1.value().predicted_active_fraction,
              d2.value().predicted_active_fraction, 0.02);
}

TEST(Solve, LargerSInflatesWorstCaseAndShrinksBlocks) {
  const MonolithicStrategy base(blast_pipeline(), {1.0, 1.0});
  const MonolithicStrategy scaled(blast_pipeline(), {1.0, 2.0});
  auto b = base.solve(20.0, 1e5);
  auto s = scaled.solve(20.0, 1e5);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_LT(s.value().block_size, b.value().block_size);
  EXPECT_GE(s.value().predicted_active_fraction,
            b.value().predicted_active_fraction - 1e-12);
}

TEST(Solve, AsymptoticActiveFractionMatchesTheory) {
  // Large D, tau0 = 100: AF approaches rho0 * sum G_i t_i / v ~ 0.0787.
  const auto pipeline = blast_pipeline();
  const MonolithicStrategy strategy(pipeline, {});
  auto solved = strategy.solve(100.0, 3.5e5);
  ASSERT_TRUE(solved.ok());
  const double limit = pipeline.mean_service_per_input() / 100.0;
  EXPECT_NEAR(solved.value().predicted_active_fraction, limit, 0.15 * limit);
}

class MonolithicDeadlineSweep : public ::testing::TestWithParam<double> {};

TEST_P(MonolithicDeadlineSweep, BlockGrowsWithDeadline) {
  const MonolithicStrategy strategy(blast_pipeline(), {});
  const double deadline = GetParam();
  auto solved = strategy.solve(50.0, deadline);
  ASSERT_TRUE(solved.ok());
  auto larger = strategy.solve(50.0, deadline * 1.5);
  ASSERT_TRUE(larger.ok());
  EXPECT_GE(larger.value().block_size, solved.value().block_size);
  EXPECT_LE(larger.value().predicted_active_fraction,
            solved.value().predicted_active_fraction + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Deadlines, MonolithicDeadlineSweep,
                         ::testing::Values(2e4, 4e4, 8e4, 1.6e5, 2.3e5));

/// Property: on random pipelines and configurations, solve() picks exactly
/// the block a brute-force scan over every M picks (first strict minimum),
/// and is_feasible() agrees with the scan.
class MonolithicRandom : public ::testing::TestWithParam<int> {};

/// A random chain of 2-4 nodes, SIMD width 8-64, censored-Poisson gains.
sdf::PipelineSpec random_pipeline(dist::Xoshiro256& rng) {
  sdf::PipelineBuilder builder("random");
  const std::uint32_t v = 8u << rng.uniform_below(4);  // 8..64
  builder.simd_width(v);
  const std::size_t n = 2 + rng.uniform_below(3);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add_node("n" + std::to_string(i), 20.0 + rng.uniform01() * 500.0,
                     i + 1 == n
                         ? dist::make_deterministic(1)
                         : dist::make_censored_poisson(
                               0.1 + rng.uniform01() * 1.2, 8));
  }
  return std::move(builder.build()).take();
}

/// The first strict minimum of the objective over every feasible M in
/// [1, max_block_size], or 0 when no M is feasible.
std::int64_t brute_force_block(const MonolithicStrategy& strategy, double tau0,
                               double deadline) {
  double best = 0.0;
  std::int64_t best_block = 0;
  for (std::int64_t m = 1; m <= strategy.max_block_size(tau0, deadline); ++m) {
    if (!strategy.is_block_feasible(m, tau0, deadline)) continue;
    const double value = strategy.active_fraction(m, tau0);
    if (best_block == 0 || value < best) {
      best = value;
      best_block = m;
    }
  }
  return best_block;
}

TEST_P(MonolithicRandom, SolverIsExactOnRandomPipelines) {
  dist::Xoshiro256 rng(4000 + GetParam());
  const auto pipeline = random_pipeline(rng);
  MonolithicConfig config;
  config.b = static_cast<double>(1 + rng.uniform_below(3));
  config.S = 1.0 + rng.uniform01();
  const MonolithicStrategy strategy(pipeline, config);

  const double tau0 =
      pipeline.mean_service_per_input() * (1.2 + rng.uniform01() * 4.0);
  const double deadline = tau0 * (200.0 + rng.uniform01() * 3000.0);

  auto solved = strategy.solve(tau0, deadline);
  double brute_best = 2.0;
  std::int64_t brute_block = 0;
  for (std::int64_t m = 1; m <= strategy.max_block_size(tau0, deadline); ++m) {
    if (!strategy.is_block_feasible(m, tau0, deadline)) continue;
    const double value = strategy.active_fraction(m, tau0);
    if (value < brute_best) {
      brute_best = value;
      brute_block = m;
    }
  }
  EXPECT_EQ(strategy.is_feasible(tau0, deadline), brute_block != 0);
  if (brute_block == 0) {
    EXPECT_FALSE(solved.ok());
    return;
  }
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(solved.value().block_size, brute_block);
  EXPECT_DOUBLE_EQ(solved.value().predicted_active_fraction, brute_best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonolithicRandom, ::testing::Range(0, 20));

/// Every deadline of a tau0 row against the brute-force scan, through
/// solve_row() over the whole row and through solve() one deadline at a
/// time: random pipelines, four (b, S) configs, tau0 from below the
/// stability floor up, and deadlines out of order, repeated, and too short
/// for any block.
TEST(MonolithicRow, MatchesScanOnGrids) {
  const MonolithicConfig configs[] = {{1.0, 1.0}, {2.0, 1.0}, {1.0, 1.5},
                                      {3.0, 1.7}};
  const double tau0_scales[] = {0.9, 1.02, 1.2, 2.0, 5.0};
  const double deadline_scales[] = {900.0, 40.0, 0.5,  2500.0, 40.0,
                                    1.0,   300.0, 3200.0, 120.0, 900.0};
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (int seed = 0; seed < 8; ++seed) {
    dist::Xoshiro256 rng(7000 + seed);
    const auto pipeline = random_pipeline(rng);
    for (const MonolithicConfig& config : configs) {
      const MonolithicStrategy strategy(pipeline, config);
      for (const double tau0_scale : tau0_scales) {
        const double tau0 = pipeline.mean_service_per_input() * tau0_scale;
        std::vector<double> deadlines;
        for (const double scale : deadline_scales) {
          deadlines.push_back(tau0 * scale);
        }
        // The whole row at once: out of order, with repeats.
        const std::vector<std::int64_t> row =
            strategy.solve_row(tau0, deadlines);
        ASSERT_EQ(row.size(), deadlines.size());
        for (std::size_t d = 0; d < deadlines.size(); ++d) {
          const double deadline = deadlines[d];
          SCOPED_TRACE("seed " + std::to_string(seed) + " b " +
                       std::to_string(config.b) + " S " +
                       std::to_string(config.S) + " tau0 " +
                       std::to_string(tau0) + " D " + std::to_string(deadline));
          const std::int64_t want = brute_force_block(strategy, tau0, deadline);
          EXPECT_EQ(row[d], want);
          auto solved = strategy.solve(tau0, deadline);
          EXPECT_EQ(strategy.is_feasible(tau0, deadline), want != 0);
          if (want == 0) {
            ++infeasible;
            ASSERT_FALSE(solved.ok());
            EXPECT_EQ(solved.error().code, "infeasible");
            continue;
          }
          ++feasible;
          ASSERT_TRUE(solved.ok());
          EXPECT_EQ(solved.value().block_size, want);
          EXPECT_EQ(solved.value().predicted_active_fraction,
                    strategy.active_fraction(want, tau0));
        }
      }
    }
  }
  // The grid reaches both sides of the frontier.
  EXPECT_GT(feasible, 200u);
  EXPECT_GT(infeasible, 200u);
}

}  // namespace
}  // namespace ripple::core
