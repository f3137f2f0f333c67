#include "opt/kkt.hpp"

#include <gtest/gtest.h>

namespace ripple::opt {
namespace {

/// min (x-2)^2 s.t. x <= 1 (as a linear constraint, no bounds).
ConvexProblem one_dim_capped() {
  ConvexProblem p;
  p.objective = [](const linalg::Vector& x) { return (x[0] - 2.0) * (x[0] - 2.0); };
  p.gradient = [](const linalg::Vector& x) {
    return linalg::Vector{2.0 * (x[0] - 2.0)};
  };
  p.lower_bounds = {-kInf};
  p.upper_bounds = {kInf};
  LinearInequality c;
  c.coefficients = {1.0};
  c.rhs = 1.0;
  c.label = "cap";
  p.constraints.push_back(c);
  return p;
}

TEST(Kkt, OptimalBoundaryPointSatisfies) {
  const ConvexProblem p = one_dim_capped();
  const KktReport report = check_kkt(p, {1.0});
  EXPECT_TRUE(report.satisfied(1e-9));
  ASSERT_EQ(report.active_labels.size(), 1u);
  EXPECT_EQ(report.active_labels[0], "cap");
}

TEST(Kkt, InteriorNonStationaryPointFails) {
  const ConvexProblem p = one_dim_capped();
  const KktReport report = check_kkt(p, {0.0});
  EXPECT_FALSE(report.satisfied(1e-6));
  EXPECT_GT(report.stationarity_residual, 1.0);
}

TEST(Kkt, InfeasiblePointReportsViolation) {
  const ConvexProblem p = one_dim_capped();
  const KktReport report = check_kkt(p, {2.0});
  EXPECT_GT(report.primal_infeasibility, 0.5);
  EXPECT_FALSE(report.satisfied(1e-6));
}

TEST(Kkt, WrongSideOfConstraintGivesNegativeMultiplier) {
  // min (x-0)^2 with constraint x <= 1 active at x = 1 is NOT optimal (the
  // unconstrained optimum 0 is feasible): multiplier must come out negative.
  ConvexProblem p = one_dim_capped();
  p.objective = [](const linalg::Vector& x) { return x[0] * x[0]; };
  p.gradient = [](const linalg::Vector& x) { return linalg::Vector{2.0 * x[0]}; };
  const KktReport report = check_kkt(p, {1.0});
  EXPECT_LT(report.min_multiplier, -1e-6);
  EXPECT_FALSE(report.satisfied(1e-6));
}

TEST(Kkt, BoundsTreatedAsConstraints) {
  // min (x-2)^2 over [0, 1]: optimum at upper bound.
  ConvexProblem p;
  p.objective = [](const linalg::Vector& x) { return (x[0] - 2.0) * (x[0] - 2.0); };
  p.gradient = [](const linalg::Vector& x) {
    return linalg::Vector{2.0 * (x[0] - 2.0)};
  };
  p.lower_bounds = {0.0};
  p.upper_bounds = {1.0};
  const KktReport report = check_kkt(p, {1.0});
  EXPECT_TRUE(report.satisfied(1e-9));
  ASSERT_EQ(report.active_labels.size(), 1u);
  EXPECT_EQ(report.active_labels[0], "upper[0]");
}

TEST(Kkt, UnconstrainedStationaryPoint) {
  ConvexProblem p;
  p.objective = [](const linalg::Vector& x) {
    return (x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  p.gradient = [](const linalg::Vector& x) {
    return linalg::Vector{2.0 * (x[0] - 1.0), 2.0 * (x[1] + 2.0)};
  };
  p.lower_bounds = {-kInf, -kInf};
  p.upper_bounds = {kInf, kInf};
  EXPECT_TRUE(check_kkt(p, {1.0, -2.0}).satisfied(1e-9));
  EXPECT_FALSE(check_kkt(p, {1.5, -2.0}).satisfied(1e-6));
}

TEST(Kkt, TwoActiveConstraintsResolved) {
  // min x + y s.t. x >= 0, y >= 0: optimum at the origin with both bounds
  // active, multipliers both +1.
  ConvexProblem p;
  p.objective = [](const linalg::Vector& x) { return x[0] + x[1]; };
  p.gradient = [](const linalg::Vector& x) {
    return linalg::Vector(x.size(), 1.0);
  };
  p.lower_bounds = {0.0, 0.0};
  p.upper_bounds = {kInf, kInf};
  const KktReport report = check_kkt(p, {0.0, 0.0});
  EXPECT_TRUE(report.satisfied(1e-9));
  EXPECT_EQ(report.active_labels.size(), 2u);
}

TEST(Kkt, DegenerateVertexFindsNonnegativeMultipliers) {
  // The capped problem with its bounds pinched to [1 - 1e-9, 1]: at x = 1
  // the cap, the upper bound and (within the active tolerance) the lower
  // bound are all active. The min-norm least-squares multipliers are
  // (1/3, 1/3, -1/3) times the gradient norm, yet x = 1 is optimal with the
  // lower bound's multiplier at zero.
  ConvexProblem p = one_dim_capped();
  p.lower_bounds = {1.0 - 1e-9};
  p.upper_bounds = {1.0};
  const KktReport report = check_kkt(p, {1.0});
  EXPECT_EQ(report.active_labels.size(), 3u);
  EXPECT_TRUE(report.satisfied(1e-9));
  EXPECT_GE(report.min_multiplier, 0.0);
}

}  // namespace
}  // namespace ripple::opt
