// Property suite: the barrier Newton solver certified on randomly generated
// convex QPs by KKT verification, feasibility and interior probes
//
//     min 0.5 x^T Q x + c^T x   s.t.  A x <= b,  l <= x <= u
//
// with Q diagonal positive definite. Random instances cover active and
// inactive constraint mixes that the hand-written tests cannot enumerate.
#include <gtest/gtest.h>

#include "dist/rng.hpp"
#include "opt/barrier.hpp"
#include "opt/kkt.hpp"

namespace ripple::opt {
namespace {

struct RandomQp {
  ConvexProblem problem;
  linalg::Vector interior;  // strictly feasible point
};

/// Build a random diagonal QP with box bounds and a few half-spaces that all
/// contain a known interior point (so feasibility is guaranteed).
RandomQp make_random_qp(std::uint64_t seed) {
  dist::Xoshiro256 rng(seed);
  const std::size_t n = 2 + rng.uniform_below(4);

  auto q = std::make_shared<linalg::Vector>(n);
  auto c = std::make_shared<linalg::Vector>(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*q)[i] = 0.5 + rng.uniform01() * 4.0;
    (*c)[i] = (rng.uniform01() - 0.5) * 10.0;
  }

  RandomQp qp;
  qp.problem.objective = [q, c](const linalg::Vector& x) {
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      value += 0.5 * (*q)[i] * x[i] * x[i] + (*c)[i] * x[i];
    }
    return value;
  };
  qp.problem.gradient = [q, c](const linalg::Vector& x) {
    linalg::Vector g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      g[i] = (*q)[i] * x[i] + (*c)[i];
    }
    return g;
  };
  qp.problem.hessian = [q](const linalg::Vector& x) {
    linalg::Matrix h(x.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) h(i, i) = (*q)[i];
    return h;
  };

  // Box around an interior point.
  qp.interior = linalg::Vector(n);
  qp.problem.lower_bounds = linalg::Vector(n);
  qp.problem.upper_bounds = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    qp.interior[i] = (rng.uniform01() - 0.5) * 4.0;
    qp.problem.lower_bounds[i] = qp.interior[i] - 0.5 - rng.uniform01() * 3.0;
    qp.problem.upper_bounds[i] = qp.interior[i] + 0.5 + rng.uniform01() * 3.0;
  }

  // Half-spaces through points beyond the interior point.
  const std::size_t constraints = rng.uniform_below(4);
  for (std::size_t k = 0; k < constraints; ++k) {
    LinearInequality inequality;
    inequality.coefficients = linalg::Vector(n);
    double at_interior = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      inequality.coefficients[i] = (rng.uniform01() - 0.5) * 2.0;
      at_interior += inequality.coefficients[i] * qp.interior[i];
    }
    inequality.rhs = at_interior + 0.25 + rng.uniform01() * 2.0;
    inequality.label = "hs" + std::to_string(k);
    qp.problem.constraints.push_back(std::move(inequality));
  }
  return qp;
}

class RandomQpSuite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomQpSuite, BarrierSatisfiesKkt) {
  const RandomQp qp = make_random_qp(GetParam());
  auto solved = barrier_minimize(qp.problem, qp.interior);
  ASSERT_TRUE(solved.ok()) << solved.error().message;
  const KktReport report = check_kkt(qp.problem, solved.value().x, 1e-4);
  EXPECT_TRUE(report.satisfied(2e-3))
      << "seed " << GetParam() << ": stationarity "
      << report.stationarity_residual << ", infeas "
      << report.primal_infeasibility << ", min mult " << report.min_multiplier;
}

TEST_P(RandomQpSuite, SolutionIsFeasible) {
  const RandomQp qp = make_random_qp(GetParam());
  auto solved = barrier_minimize(qp.problem, qp.interior);
  ASSERT_TRUE(solved.ok());
  EXPECT_GE(qp.problem.min_slack(solved.value().x), -1e-7);
}

TEST_P(RandomQpSuite, NoInteriorProbeBeatsTheOptimum) {
  const RandomQp qp = make_random_qp(GetParam());
  auto solved = barrier_minimize(qp.problem, qp.interior);
  ASSERT_TRUE(solved.ok());
  // Random feasible probes must never score below the reported optimum.
  dist::Xoshiro256 rng(GetParam() ^ 0xABCDEF);
  const std::size_t n = qp.problem.dimension();
  int probes = 0;
  for (int attempt = 0; attempt < 400 && probes < 50; ++attempt) {
    linalg::Vector probe(n);
    for (std::size_t i = 0; i < n; ++i) {
      probe[i] = qp.problem.lower_bounds[i] +
                 rng.uniform01() *
                     (qp.problem.upper_bounds[i] - qp.problem.lower_bounds[i]);
    }
    if (qp.problem.min_slack(probe) < -1e-9) continue;
    ++probes;
    EXPECT_GE(qp.problem.objective(probe),
              solved.value().objective - 1e-7)
        << "seed " << GetParam();
  }
  EXPECT_GT(probes, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQpSuite, ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace ripple::opt
