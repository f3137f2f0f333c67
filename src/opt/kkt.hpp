// KKT verification for candidate optima of a ConvexProblem.
//
// For convex f with linear constraints, x* is optimal iff it is feasible and
// there exist multipliers lambda >= 0 on the active constraints with
//   grad f(x*) + sum_j lambda_j a_j = 0
// (bounds are treated as constraints a = +-e_i). We recover least-squares
// multipliers over the active set and report the stationarity residual, so
// tests can assert optimality independently of which solver produced x*.
#pragma once

#include <string>
#include <vector>

#include "opt/problem.hpp"

namespace ripple::opt {

struct KktReport {
  double primal_infeasibility = 0.0;  ///< max constraint violation at x
  double stationarity_residual = 0.0; ///< ||grad f + A_act^T lambda||_inf
  double min_multiplier = 0.0;        ///< most negative multiplier (>= -tol ok)
  std::vector<std::string> active_labels;

  /// True when all three residuals are within `tolerance`.
  bool satisfied(double tolerance = 1e-6) const {
    return primal_infeasibility <= tolerance &&
           stationarity_residual <= tolerance &&
           min_multiplier >= -tolerance;
  }

  /// Like satisfied() but with one tolerance per residual: primal
  /// feasibility, stationarity, and multiplier sign live on different
  /// scales (constraint slacks are in cycles, gradients in 1/cycles), so a
  /// certificate-grade check — e.g. accepting a closed-form point as the
  /// exact optimum — needs them decoupled.
  bool certified(double primal_tolerance, double stationarity_tolerance,
                 double multiplier_tolerance) const {
    return primal_infeasibility <= primal_tolerance &&
           stationarity_residual <= stationarity_tolerance &&
           min_multiplier >= -multiplier_tolerance;
  }
};

/// Evaluate KKT conditions at `x`. `active_tolerance` is the slack threshold
/// below which a constraint counts as active.
KktReport check_kkt(const ConvexProblem& problem, const linalg::Vector& x,
                    double active_tolerance = 1e-6);

}  // namespace ripple::opt
