// Convex NLP with linear inequality constraints and box bounds:
//
//   minimize f(x)   subject to   A x <= c,   l <= x <= u.
//
// This is the problem class both of the paper's optimizations reduce to
// (Figures 1 and 2); the barrier and KKT modules consume it.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ripple::opt {

/// One half-space: coefficients . x <= rhs.
struct LinearInequality {
  linalg::Vector coefficients;
  double rhs = 0.0;
  std::string label;  ///< for diagnostics ("deadline", "chain[2]", ...)

  double slack(const linalg::Vector& x) const {
    return rhs - linalg::dot(coefficients, x);
  }
};

/// The problem description. Objective callbacks must be defined on the open
/// feasible region; convexity is assumed by the barrier solver, which needs
/// all three.
struct ConvexProblem {
  std::function<double(const linalg::Vector&)> objective;
  std::function<linalg::Vector(const linalg::Vector&)> gradient;
  std::function<linalg::Matrix(const linalg::Vector&)> hessian;

  std::vector<LinearInequality> constraints;
  linalg::Vector lower_bounds;  ///< -inf entries allowed
  linalg::Vector upper_bounds;  ///< +inf entries allowed

  std::size_t dimension() const { return lower_bounds.size(); }

  /// Max violation of any constraint/bound at x (0 means feasible).
  double infeasibility(const linalg::Vector& x) const;

  /// Smallest slack across constraints and bounds (negative = infeasible).
  double min_slack(const linalg::Vector& x) const;
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace ripple::opt
