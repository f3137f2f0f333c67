// Log-barrier interior-point solver for ConvexProblem.
//
// Standard path-following scheme: for decreasing barrier weight mu, minimize
//   f(x) - mu * [ sum_j log(slack_j(x)) + sum_i log(x_i - l_i) + log(u_i - x_i) ]
// by damped Newton with backtracking line search that maintains strict
// feasibility. The duality-gap proxy m*mu bounds suboptimality for convex f,
// so the final mu determines solution accuracy.
//
// This is the repo's stand-in for the paper's BONMIN continuous solves. Its
// only production use is planning DAGs with more than one root-to-sink path
// (graph/graph_plan); chains are solved in closed form (core/waterfill.hpp),
// and tests use this solver as their independent oracle.
#pragma once

#include "opt/problem.hpp"
#include "util/result.hpp"

namespace ripple::opt {

struct BarrierOptions {
  double initial_mu = 1.0;
  double mu_shrink = 0.1;          ///< mu multiplier per outer iteration
  double gap_tolerance = 1e-9;     ///< stop when m * mu < gap_tolerance
  double newton_tolerance = 1e-10; ///< inner stop on Newton decrement^2 / 2
  int max_outer_iterations = 60;
  int max_newton_iterations = 80;
  double armijo_c = 1e-4;
  double backtrack_ratio = 0.5;
};

struct BarrierSolution {
  linalg::Vector x;
  double objective = 0.0;
  int outer_iterations = 0;
  int newton_iterations = 0;
  double final_mu = 0.0;
};

/// Solve starting from `interior_start`, which must be strictly feasible
/// (min_slack > 0). Failure codes:
///   "not_interior"   — the start point is not strictly feasible
///   "no_convergence" — iteration budget exhausted
///   "singular"       — Newton system unsolvable even with regularization
util::Result<BarrierSolution> barrier_minimize(const ConvexProblem& problem,
                                               const linalg::Vector& interior_start,
                                               const BarrierOptions& options = {});

}  // namespace ripple::opt
