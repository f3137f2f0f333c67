// Log-barrier interior-point solver for ConvexProblem.
//
// Standard path-following scheme: for decreasing barrier weight mu, minimize
//   f(x) - mu * [ sum_j log(slack_j(x)) + sum_i log(x_i - l_i) + log(u_i - x_i) ]
// by damped Newton with backtracking line search that maintains strict
// feasibility. The duality-gap proxy m*mu bounds suboptimality for convex f,
// so the final mu (m * mu < 1e-9) determines solution accuracy. The problem
// must supply its Hessian.
//
// This is the repo's stand-in for the paper's BONMIN continuous solves. Its
// only production use is planning DAGs with more than one root-to-sink path
// (graph/graph_plan); chains are solved in closed form (core/waterfill.hpp),
// and tests use this solver as their independent oracle.
#pragma once

#include "opt/problem.hpp"
#include "util/result.hpp"

namespace ripple::opt {

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
                                               const linalg::Vector& interior_start);

}  // namespace ripple::opt
