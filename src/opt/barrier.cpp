#include "opt/barrier.hpp"

#include <cmath>

#include "linalg/solve.hpp"
#include "util/assert.hpp"

namespace ripple::opt {

namespace {

// Path-following schedule: mu starts at kInitialMu and shrinks by kMuShrink
// per outer iteration until the gap proxy m * mu drops below kGapTolerance;
// each inner Newton solve stops when decrement^2 / 2 <= kNewtonTolerance.
constexpr double kInitialMu = 1.0;
constexpr double kMuShrink = 0.1;
constexpr double kGapTolerance = 1e-9;
constexpr double kNewtonTolerance = 1e-10;
constexpr int kMaxOuterIterations = 60;
constexpr int kMaxNewtonIterations = 80;
constexpr double kArmijoC = 1e-4;
constexpr double kBacktrackRatio = 0.5;

/// Count of barrier terms m (constraints + finite bounds): the duality-gap
/// proxy is m * mu.
std::size_t barrier_term_count(const ConvexProblem& p) {
  std::size_t m = p.constraints.size();
  for (std::size_t i = 0; i < p.dimension(); ++i) {
    if (p.lower_bounds[i] > -kInf) ++m;
    if (p.upper_bounds[i] < kInf) ++m;
  }
  return m;
}

double barrier_value(const ConvexProblem& p, const linalg::Vector& x, double mu) {
  double value = p.objective(x);
  for (const auto& c : p.constraints) {
    const double s = c.slack(x);
    if (s <= 0.0) return kInf;
    value -= mu * std::log(s);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (p.lower_bounds[i] > -kInf) {
      const double s = x[i] - p.lower_bounds[i];
      if (s <= 0.0) return kInf;
      value -= mu * std::log(s);
    }
    if (p.upper_bounds[i] < kInf) {
      const double s = p.upper_bounds[i] - x[i];
      if (s <= 0.0) return kInf;
      value -= mu * std::log(s);
    }
  }
  return value;
}

linalg::Vector barrier_gradient(const ConvexProblem& p, const linalg::Vector& x,
                                double mu) {
  linalg::Vector g = p.gradient(x);
  for (const auto& c : p.constraints) {
    const double s = c.slack(x);
    // grad of -mu log(rhs - a.x) is +mu a / s
    linalg::axpy(g, mu / s, c.coefficients);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (p.lower_bounds[i] > -kInf) g[i] -= mu / (x[i] - p.lower_bounds[i]);
    if (p.upper_bounds[i] < kInf) g[i] += mu / (p.upper_bounds[i] - x[i]);
  }
  return g;
}

linalg::Matrix barrier_hessian(const ConvexProblem& p, const linalg::Vector& x,
                               double mu) {
  const std::size_t n = x.size();
  linalg::Matrix h = p.hessian(x);
  for (const auto& c : p.constraints) {
    const double s = c.slack(x);
    const double w = mu / (s * s);
    for (std::size_t i = 0; i < n; ++i) {
      const double ai = c.coefficients[i];
      if (ai == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        h(i, j) += w * ai * c.coefficients[j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (p.lower_bounds[i] > -kInf) {
      const double s = x[i] - p.lower_bounds[i];
      h(i, i) += mu / (s * s);
    }
    if (p.upper_bounds[i] < kInf) {
      const double s = p.upper_bounds[i] - x[i];
      h(i, i) += mu / (s * s);
    }
  }
  return h;
}

}  // namespace

util::Result<BarrierSolution> barrier_minimize(const ConvexProblem& problem,
                                               const linalg::Vector& interior_start) {
  using R = util::Result<BarrierSolution>;
  RIPPLE_REQUIRE(static_cast<bool>(problem.objective), "objective required");
  RIPPLE_REQUIRE(static_cast<bool>(problem.gradient), "gradient required");
  RIPPLE_REQUIRE(static_cast<bool>(problem.hessian), "hessian required");
  RIPPLE_REQUIRE(interior_start.size() == problem.dimension(),
                 "start point dimension mismatch");

  if (problem.min_slack(interior_start) <= 0.0) {
    return R::failure("not_interior", "start point is not strictly feasible");
  }

  const std::size_t m = barrier_term_count(problem);
  BarrierSolution solution;
  solution.x = interior_start;

  double mu = kInitialMu;
  for (int outer = 0; outer < kMaxOuterIterations; ++outer) {
    ++solution.outer_iterations;

    // Inner: damped Newton on the barrier-augmented objective at fixed mu.
    for (int inner = 0; inner < kMaxNewtonIterations; ++inner) {
      const linalg::Vector g = barrier_gradient(problem, solution.x, mu);
      linalg::Matrix h = barrier_hessian(problem, solution.x, mu);

      auto step = linalg::solve_cholesky(h, linalg::scale(g, -1.0));
      if (!step.ok()) {
        // Regularize a numerically non-SPD Hessian and fall back to LU.
        h.add_diagonal(1e-8 * (1.0 + linalg::norm_inf(g)));
        auto retry = linalg::solve_lu(h, linalg::scale(g, -1.0));
        if (!retry.ok()) {
          return R::failure("singular", "Newton system unsolvable: " +
                                            retry.error().message);
        }
        step = std::move(retry);
      }
      const linalg::Vector& direction = step.value();

      const double decrement2 = -linalg::dot(g, direction);  // lambda^2
      if (decrement2 * 0.5 <= kNewtonTolerance) break;
      ++solution.newton_iterations;

      // Backtracking: stay strictly feasible, then Armijo on barrier value.
      const double base = barrier_value(problem, solution.x, mu);
      double t = 1.0;
      linalg::Vector candidate = solution.x;
      bool accepted = false;
      for (int bt = 0; bt < 80; ++bt) {
        candidate = solution.x;
        linalg::axpy(candidate, t, direction);
        if (problem.min_slack(candidate) > 0.0) {
          const double value = barrier_value(problem, candidate, mu);
          if (value <= base - kArmijoC * t * decrement2) {
            accepted = true;
            break;
          }
        }
        t *= kBacktrackRatio;
      }
      if (!accepted) break;  // step stalled; outer loop will tighten mu
      solution.x = std::move(candidate);
    }

    if (static_cast<double>(m) * mu < kGapTolerance) {
      solution.objective = problem.objective(solution.x);
      solution.final_mu = mu;
      return solution;
    }
    mu *= kMuShrink;
  }

  return R::failure("no_convergence", "barrier iteration budget exhausted");
}

}  // namespace ripple::opt
