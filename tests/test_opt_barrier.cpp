#include "opt/barrier.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "opt/kkt.hpp"

namespace ripple::opt {
namespace {

/// min (x-2)^2 + (y-3)^2 over the box [0,1]^2: optimum at the corner (1,1).
ConvexProblem boxed_quadratic() {
  ConvexProblem p;
  p.objective = [](const linalg::Vector& x) {
    return (x[0] - 2.0) * (x[0] - 2.0) + (x[1] - 3.0) * (x[1] - 3.0);
  };
  p.gradient = [](const linalg::Vector& x) {
    return linalg::Vector{2.0 * (x[0] - 2.0), 2.0 * (x[1] - 3.0)};
  };
  p.hessian = [](const linalg::Vector& x) {
    linalg::Matrix h(x.size(), x.size());
    h(0, 0) = 2.0;
    h(1, 1) = 2.0;
    return h;
  };
  p.lower_bounds = {0.0, 0.0};
  p.upper_bounds = {1.0, 1.0};
  return p;
}

/// min sum t_i/x_i  s.t.  sum x_i <= B, x_i >= t_i — a 2-node instance of the
/// enforced-waits objective with analytic water-filling optimum
/// x_i proportional to sqrt(t_i).
ConvexProblem waterfilling(double t0, double t1, double budget) {
  ConvexProblem p;
  p.objective = [t0, t1](const linalg::Vector& x) {
    return t0 / x[0] + t1 / x[1];
  };
  p.gradient = [t0, t1](const linalg::Vector& x) {
    return linalg::Vector{-t0 / (x[0] * x[0]), -t1 / (x[1] * x[1])};
  };
  p.hessian = [t0, t1](const linalg::Vector& x) {
    linalg::Matrix h(2, 2);
    h(0, 0) = 2.0 * t0 / (x[0] * x[0] * x[0]);
    h(1, 1) = 2.0 * t1 / (x[1] * x[1] * x[1]);
    return h;
  };
  p.lower_bounds = {t0, t1};
  p.upper_bounds = {kInf, kInf};
  LinearInequality sum;
  sum.coefficients = {1.0, 1.0};
  sum.rhs = budget;
  sum.label = "budget";
  p.constraints.push_back(sum);
  return p;
}

TEST(Barrier, BoxCornerOptimum) {
  const ConvexProblem p = boxed_quadratic();
  auto solved = barrier_minimize(p, {0.5, 0.5});
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.value().x[0], 1.0, 1e-5);
  EXPECT_NEAR(solved.value().x[1], 1.0, 1e-5);
  EXPECT_NEAR(solved.value().objective, 1.0 + 4.0, 1e-4);
}

TEST(Barrier, InteriorOptimumWhenUnconstrained) {
  ConvexProblem p = boxed_quadratic();
  p.upper_bounds = {10.0, 10.0};  // now (2,3) is interior
  auto solved = barrier_minimize(p, {0.5, 0.5});
  ASSERT_TRUE(solved.ok());
  EXPECT_NEAR(solved.value().x[0], 2.0, 1e-5);
  EXPECT_NEAR(solved.value().x[1], 3.0, 1e-5);
}

TEST(Barrier, WaterfillingMatchesAnalyticOptimum) {
  const double t0 = 287.0;
  const double t1 = 2753.0;
  const double budget = 20000.0;
  const ConvexProblem p = waterfilling(t0, t1, budget);
  auto solved = barrier_minimize(p, {1000.0, 5000.0});
  ASSERT_TRUE(solved.ok());
  const double denom = std::sqrt(t0) + std::sqrt(t1);
  EXPECT_NEAR(solved.value().x[0], budget * std::sqrt(t0) / denom, 0.5);
  EXPECT_NEAR(solved.value().x[1], budget * std::sqrt(t1) / denom, 0.5);
}

TEST(Barrier, SolutionSatisfiesKkt) {
  const ConvexProblem p = waterfilling(100.0, 900.0, 5000.0);
  auto solved = barrier_minimize(p, {500.0, 1500.0});
  ASSERT_TRUE(solved.ok());
  const KktReport report = check_kkt(p, solved.value().x, 1e-3);
  EXPECT_TRUE(report.satisfied(1e-4))
      << "stationarity " << report.stationarity_residual << ", infeas "
      << report.primal_infeasibility << ", min mult " << report.min_multiplier;
}

TEST(Barrier, RejectsNonInteriorStart) {
  const ConvexProblem p = boxed_quadratic();
  auto on_boundary = barrier_minimize(p, {0.0, 0.5});
  ASSERT_FALSE(on_boundary.ok());
  EXPECT_EQ(on_boundary.error().code, "not_interior");
  auto outside = barrier_minimize(p, {-1.0, 0.5});
  ASSERT_FALSE(outside.ok());
}

TEST(Barrier, TightBudgetPinsToLowerBounds) {
  // Budget exactly t0 + t1 + small slack: optimum hugs the lower bounds.
  const ConvexProblem p = waterfilling(100.0, 400.0, 510.0);
  auto solved = barrier_minimize(p, {102.0, 405.0});
  ASSERT_TRUE(solved.ok());
  EXPECT_GE(solved.value().x[0], 100.0 - 1e-9);
  EXPECT_GE(solved.value().x[1], 400.0 - 1e-9);
  EXPECT_LE(solved.value().x[0] + solved.value().x[1], 510.0 + 1e-6);
}

/// Property: across budgets, the solver's objective is never worse than the
/// value at any vertex of a feasibility probe grid.
class BarrierBudgetSweep : public ::testing::TestWithParam<double> {};

TEST_P(BarrierBudgetSweep, BeatsGridProbes) {
  const double budget = GetParam();
  const double t0 = 287.0;
  const double t1 = 955.0;
  const ConvexProblem p = waterfilling(t0, t1, budget);
  // Strictly interior start near the lower corner.
  auto solved = barrier_minimize(p, {t0 + 1.0, t1 + 1.0});
  ASSERT_TRUE(solved.ok());
  for (double f = 0.05; f < 1.0; f += 0.05) {
    const double x0 = t0 + f * (budget - t0 - t1);
    const double x1 = budget - x0;
    if (x1 < t1) continue;
    const double probe = t0 / x0 + t1 / x1;
    EXPECT_LE(solved.value().objective, probe + 1e-6) << "f=" << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BarrierBudgetSweep,
                         ::testing::Values(1250.0, 1500.0, 2000.0, 5000.0,
                                           20000.0, 100000.0));

}  // namespace
}  // namespace ripple::opt
