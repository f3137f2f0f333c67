#include "core/enforced_waits.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "blast/canonical.hpp"
#include "dist/rng.hpp"
#include "opt/barrier.hpp"
#include "sdf/analysis.hpp"

namespace ripple::core {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

EnforcedWaitsConfig paper_config() {
  return EnforcedWaitsConfig{blast::paper_calibrated_b()};
}

TEST(Config, OptimisticMatchesPaperRule) {
  // b_i = max(1, ceil(g_i)): {1, 2, 1, 1} for Table 1.
  const auto config = EnforcedWaitsConfig::optimistic(blast_pipeline());
  ASSERT_EQ(config.b.size(), 4u);
  EXPECT_DOUBLE_EQ(config.b[0], 1.0);
  EXPECT_DOUBLE_EQ(config.b[1], 2.0);
  EXPECT_DOUBLE_EQ(config.b[2], 1.0);
  EXPECT_DOUBLE_EQ(config.b[3], 1.0);
}

TEST(Strategy, RejectsMalformedB) {
  EXPECT_THROW(EnforcedWaitsStrategy(blast_pipeline(), EnforcedWaitsConfig{{1.0}}),
               std::logic_error);
  EXPECT_THROW(EnforcedWaitsStrategy(blast_pipeline(),
                                     EnforcedWaitsConfig{{1.0, 0.5, 1.0, 1.0}}),
               std::logic_error);
}

TEST(Feasibility, RateConstraintFrontier) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  // Minimal x_0 = 0.379 * 955 = 361.9; rate needs v * tau0 >= x_0, so
  // tau0 >= 2.83 cycles.
  const double tau_min = 0.379 * 955.0 / 128.0;
  EXPECT_FALSE(strategy.is_feasible(tau_min - 0.01, 1e9));
  EXPECT_TRUE(strategy.is_feasible(tau_min + 0.01, 1e9));
}

TEST(Feasibility, DeadlineFrontierMatchesMinimalBudget) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  const Cycles budget =
      sdf::minimal_deadline_budget(pipeline, paper_config().b);
  EXPECT_FALSE(strategy.is_feasible(50.0, budget - 1.0));
  EXPECT_TRUE(strategy.is_feasible(50.0, budget + 1.0));
  EXPECT_DOUBLE_EQ(strategy.min_feasible_deadline(50.0), budget);
}

TEST(Feasibility, MinDeadlineInfiniteWhenRateInfeasible) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  EXPECT_TRUE(std::isinf(strategy.min_feasible_deadline(1.0)));
}

TEST(Solve, InfeasibleReturnsDiagnosticError) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  auto too_fast = strategy.solve(1.0, 3.5e5);
  ASSERT_FALSE(too_fast.ok());
  EXPECT_EQ(too_fast.error().code, "infeasible");
  EXPECT_NE(too_fast.error().message.find("arrival-rate"), std::string::npos);

  auto too_tight = strategy.solve(50.0, 2e4);
  ASSERT_FALSE(too_tight.ok());
  EXPECT_EQ(too_tight.error().code, "infeasible");
  EXPECT_NE(too_tight.error().message.find("deadline"), std::string::npos);
}

TEST(Solve, ScheduleInternallyConsistent) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  auto solved = strategy.solve(50.0, 1.85e5);
  ASSERT_TRUE(solved.ok());
  const auto& schedule = solved.value();
  ASSERT_EQ(schedule.waits.size(), 4u);
  double budget = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(schedule.waits[i], 0.0);
    EXPECT_NEAR(schedule.firing_intervals[i],
                pipeline.service_time(i) + schedule.waits[i], 1e-9);
    budget += paper_config().b[i] * schedule.firing_intervals[i];
  }
  EXPECT_NEAR(schedule.deadline_budget_used, budget, 1e-6);
  EXPECT_LE(schedule.deadline_budget_used, 1.85e5 * (1.0 + 1e-9));
  EXPECT_NEAR(schedule.predicted_active_fraction,
              strategy.active_fraction(schedule.firing_intervals), 1e-12);
}

TEST(Solve, SatisfiesKktAcrossTheGrid) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  for (double tau0 : {3.0, 5.0, 10.0, 30.0, 100.0}) {
    for (double deadline : {3e4, 5e4, 1e5, 2e5, 3.5e5}) {
      auto solved = strategy.solve(tau0, deadline);
      if (!solved.ok()) continue;
      EXPECT_TRUE(solved.value().kkt.satisfied(1e-3))
          << "tau0=" << tau0 << " D=" << deadline << " stationarity "
          << solved.value().kkt.stationarity_residual;
    }
  }
}

TEST(Solve, MatchesBarrierCrossCheck) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  const double tau0 = 20.0;
  const double deadline = 1.5e5;
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_TRUE(solved.ok());

  const opt::ConvexProblem problem = strategy.build_problem(tau0, deadline);
  const linalg::Vector start = strategy.interior_start(tau0, deadline);
  ASSERT_FALSE(start.empty());
  auto barrier = opt::barrier_minimize(problem, start);
  ASSERT_TRUE(barrier.ok());
  EXPECT_NEAR(solved.value().predicted_active_fraction,
              barrier.value().objective, 1e-6);
  // The closed form is exact; the barrier stops within its duality gap.
  EXPECT_LE(solved.value().predicted_active_fraction,
            barrier.value().objective + 1e-12);
  for (std::size_t i = 0; i < problem.dimension(); ++i) {
    EXPECT_NEAR(solved.value().firing_intervals[i], barrier.value().x[i],
                1e-3 * solved.value().firing_intervals[i])
        << i;
  }
}

TEST(Solve, ActiveFractionDecreasesWithDeadline) {
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  double previous = 1.0;
  for (double deadline : {3e4, 6e4, 1.2e5, 2.4e5, 3.5e5}) {
    auto solved = strategy.solve(20.0, deadline);
    ASSERT_TRUE(solved.ok()) << deadline;
    EXPECT_LE(solved.value().predicted_active_fraction, previous + 1e-9)
        << deadline;
    previous = solved.value().predicted_active_fraction;
  }
}

TEST(Solve, InsensitiveToTau0WhenDeadlineBinds) {
  // Paper Figure 3: for moderate-to-large tau0 the enforced-waits active
  // fraction barely depends on tau0 (rate constraint slack).
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  auto at50 = strategy.solve(50.0, 5e4);
  auto at100 = strategy.solve(100.0, 5e4);
  ASSERT_TRUE(at50.ok());
  ASSERT_TRUE(at100.ok());
  EXPECT_NEAR(at50.value().predicted_active_fraction,
              at100.value().predicted_active_fraction, 1e-3);
}

TEST(Solve, RateConstraintBindsAtSmallTau0) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  auto solved = strategy.solve(3.0, 3.5e5);
  ASSERT_TRUE(solved.ok());
  // v * tau0 = 384; x_0 must sit at this cap.
  EXPECT_NEAR(solved.value().firing_intervals[0], 128.0 * 3.0, 1.0);
}

TEST(Solve, ChainConstraintRespected) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  for (double tau0 : {3.0, 10.0, 100.0}) {
    auto solved = strategy.solve(tau0, 2e5);
    ASSERT_TRUE(solved.ok());
    const auto& x = solved.value().firing_intervals;
    for (std::size_t i = 1; i < x.size(); ++i) {
      EXPECT_LE(x[i] * pipeline.mean_gain(i - 1), x[i - 1] * (1.0 + 1e-6))
          << "chain at node " << i << ", tau0 " << tau0;
    }
  }
}

TEST(Solve, DegenerateDeadlineGivesMinimalPoint) {
  const auto pipeline = blast_pipeline();
  const auto config = paper_config();
  const EnforcedWaitsStrategy strategy(pipeline, config);
  const Cycles budget = sdf::minimal_deadline_budget(pipeline, config.b);
  auto solved = strategy.solve(50.0, budget);  // zero slack
  ASSERT_TRUE(solved.ok());
  const auto lower = sdf::minimal_firing_intervals(pipeline);
  for (std::size_t i = 0; i < lower.size(); ++i) {
    EXPECT_NEAR(solved.value().firing_intervals[i], lower[i],
                1e-6 * lower[i] + 1e-6);
  }
}

TEST(Solve, PaperScaleValueAtSlackCorner) {
  // tau0 = 100, D = 3.5e5: hand-computed water-filling optimum gives an
  // active fraction near 0.049 (see DESIGN.md). Guard the value so solver
  // regressions are caught.
  const EnforcedWaitsStrategy strategy(blast_pipeline(), paper_config());
  auto solved = strategy.solve(100.0, 3.5e5);
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.value().predicted_active_fraction, 0.049, 0.002);
}

TEST(Solve, SingleNodePipeline) {
  auto spec = sdf::PipelineBuilder("solo")
                  .simd_width(4)
                  .add_node("only", 10.0, dist::make_deterministic(1))
                  .build();
  const EnforcedWaitsStrategy strategy(std::move(spec).take(),
                                       EnforcedWaitsConfig{{1.0}});
  // Deadline 40, b=1: x <= 40; rate tau0=5 -> x <= 20. Optimum x = 20.
  auto solved = strategy.solve(5.0, 40.0);
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.value().firing_intervals[0], 20.0, 1e-4);
  EXPECT_NEAR(solved.value().predicted_active_fraction, 0.5, 1e-4);
}

TEST(SolveOracle, RandomPipelinesMatchBarrierAndCertify) {
  // 200 seeded random pipelines with zero-gain, Bernoulli and deterministic
  // edges, each solved at cells on both sides of the feasibility frontier.
  // Every solve must agree with is_feasible, carry a strict KKT
  // certificate, and match the log-barrier optimum of the full problem.
  std::size_t feasible_cells = 0;
  std::size_t chain_active_cells = 0;
  for (int seed = 0; seed < 200; ++seed) {
    dist::Xoshiro256 rng(9000 + seed);
    sdf::PipelineBuilder builder("random");
    builder.simd_width(4u << rng.uniform_below(5));  // 4..64
    const std::size_t n = 1 + rng.uniform_below(8);
    std::vector<double> b;
    for (std::size_t i = 0; i < n; ++i) {
      dist::GainPtr gain;
      switch (rng.uniform_below(3)) {
        case 0: gain = dist::make_deterministic(0); break;
        case 1:
          gain = dist::make_bernoulli(0.05 + 0.9 * rng.uniform01());
          break;
        default:
          gain = dist::make_deterministic(1 + rng.uniform_below(3));
          break;
      }
      builder.add_node("n" + std::to_string(i), 5.0 + rng.uniform01() * 2000.0,
                       std::move(gain));
      b.push_back(static_cast<double>(1 + rng.uniform_below(9)));
    }
    const auto pipeline = std::move(builder.build()).take();
    const EnforcedWaitsStrategy strategy(pipeline, EnforcedWaitsConfig{b});
    const double tau0_floor = sdf::minimal_firing_intervals(pipeline)[0] /
                              static_cast<double>(pipeline.simd_width());
    const double budget_floor = sdf::minimal_deadline_budget(pipeline, b);

    for (int cell = 0; cell < 6; ++cell) {
      const double tau0 = tau0_floor * (0.8 + 3.0 * rng.uniform01());
      const double deadline = budget_floor * (0.8 + 5.0 * rng.uniform01());
      SCOPED_TRACE("seed " + std::to_string(seed) + " tau0 " +
                   std::to_string(tau0) + " D " + std::to_string(deadline));
      auto solved = strategy.solve(tau0, deadline);
      ASSERT_EQ(solved.ok(), strategy.is_feasible(tau0, deadline));
      if (!solved.ok()) {
        EXPECT_EQ(solved.error().code, "infeasible");
        continue;
      }
      ++feasible_cells;
      const auto& schedule = solved.value();
      const auto problem = strategy.build_problem(tau0, deadline);
      const linalg::Vector x(schedule.firing_intervals.begin(),
                             schedule.firing_intervals.end());
      const double grad_scale = 1.0 + linalg::norm_inf(problem.gradient(x));
      EXPECT_TRUE(schedule.kkt.certified(1e-9 * (1.0 + deadline),
                                         1e-8 * grad_scale, 1e-8 * grad_scale));
      for (const auto& label : schedule.kkt.active_labels) {
        if (label.rfind("chain", 0) == 0) {
          ++chain_active_cells;
          break;
        }
      }

      const auto start = strategy.interior_start(tau0, deadline);
      if (start.empty()) continue;  // L is the only feasible point
      auto barrier = opt::barrier_minimize(problem, start);
      ASSERT_TRUE(barrier.ok());
      EXPECT_NEAR(schedule.predicted_active_fraction, barrier.value().objective,
                  1e-5);
      EXPECT_LE(schedule.predicted_active_fraction,
                barrier.value().objective + 1e-12);
    }
  }
  // The draw must exercise both the chain-active and the feasible region.
  EXPECT_GT(feasible_cells, 300u);
  EXPECT_GT(chain_active_cells, 30u);
}

TEST(InteriorStart, EmptyWhenNoInteriorPointExists) {
  // At zero deadline slack the feasible region has empty interior; the
  // Phase-I search must report that by returning an empty vector (the
  // degenerate-deadline branch in solve() handles the point itself).
  const auto pipeline = blast_pipeline();
  const auto config = paper_config();
  const EnforcedWaitsStrategy strategy(pipeline, config);
  const Cycles budget = sdf::minimal_deadline_budget(pipeline, config.b);
  EXPECT_TRUE(strategy.interior_start(50.0, budget).empty());
  // And with slack, the start must be strictly interior.
  EXPECT_FALSE(strategy.interior_start(50.0, budget + 100.0).empty());
}

/// Property sweep: every feasible solve satisfies all constraints and beats
/// the trivial zero-wait schedule.
struct GridPoint {
  double tau0;
  double deadline;
};

class EnforcedGrid : public ::testing::TestWithParam<GridPoint> {};

TEST_P(EnforcedGrid, FeasibleSolutionsAreValidAndUseful) {
  const auto [tau0, deadline] = GetParam();
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  auto solved = strategy.solve(tau0, deadline);
  ASSERT_EQ(solved.ok(), strategy.is_feasible(tau0, deadline));
  if (!solved.ok()) return;

  const opt::ConvexProblem problem = strategy.build_problem(tau0, deadline);
  const linalg::Vector x(solved.value().firing_intervals.begin(),
                         solved.value().firing_intervals.end());
  EXPECT_GE(problem.min_slack(x), -1e-6);

  // Zero-wait schedule has active fraction 1; any feasible optimum is <= 1.
  EXPECT_LE(solved.value().predicted_active_fraction, 1.0 + 1e-9);
  EXPECT_GT(solved.value().predicted_active_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnforcedGrid,
    ::testing::Values(GridPoint{2.5, 3e4}, GridPoint{2.9, 1e5},
                      GridPoint{5.0, 2.4e4}, GridPoint{5.0, 3.5e5},
                      GridPoint{10.0, 5e4}, GridPoint{20.0, 2.36e4},
                      GridPoint{50.0, 7e4}, GridPoint{100.0, 2.4e4},
                      GridPoint{100.0, 3.5e5}));

}  // namespace
}  // namespace ripple::core
