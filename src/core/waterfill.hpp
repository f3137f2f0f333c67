// Exact solves of the enforced-waits problem (paper Figure 1):
//
//     min sum_i t_i / x_i   s.t.   sum_i b_i x_i <= D,  l_i <= x_i <= u_i,
//                                  g_{i-1} x_i <= x_{i-1}  (positive gains)
//
// with l_i = t_i, u_0 = v * tau0, u_{i>0} = inf.
//
// waterfill_solve drops the chain constraints. The KKT conditions then give
// x_i(lambda) = clamp(sqrt(t_i / (lambda b_i)), l_i, u_i) with one budget
// multiplier lambda; budget usage is decreasing in lambda, so bisection
// recovers lambda to machine precision.
//
// waterfill_solve_chained holds a given set of chain constraints as
// equalities. Nodes linked by an active edge merge into a block with one
// representative variable y (the last node's interval), objective weight
// T_B = sum t_j / r_j, budget weight B_B = sum b_j r_j and bounds folded
// through the ratios r_j. The reduced problem is separable again, so the
// same bisection solves it.
//
// waterfill_solve_pooled finds the active set. In z_i = G_i x_i (G the
// cumulative gain, reset after each zero-gain edge) the chain constraints
// say z is non-increasing along each segment, so for a fixed lambda the
// problem is a separable convex isotonic program that pool-adjacent-
// violators solves exactly in O(N) (Best, Chakravarti & Ubhaya, SIAM J.
// Optim. 2000). Bisecting lambda over the pooled solve gives the optimal
// pools, i.e. the active chain set, and waterfill_solve_chained on that set
// gives the returned intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "sdf/pipeline.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::core {

struct WaterfillSolution {
  std::vector<Cycles> firing_intervals;  ///< x_i
  double lambda = 0.0;                   ///< budget multiplier
  double active_fraction = 1.0;
  bool chain_feasible = false;  ///< true -> exact optimum of the full problem
  /// The active chain set found by waterfill_solve_pooled (empty for the
  /// other solves).
  std::vector<std::uint8_t> chain_active;
};

/// Solve the relaxed (chain-free) problem exactly. Failure codes:
///   "infeasible" — even x = l violates rate or deadline
util::Result<WaterfillSolution> waterfill_solve(const sdf::PipelineSpec& pipeline,
                                                const std::vector<double>& b,
                                                Cycles tau0, Cycles deadline);

/// Solve with the chain constraints in `chain_active` held as equalities.
/// `chain_active` has one entry per node; entry i (i >= 1) refers to the
/// constraint g_{i-1} x_i <= x_{i-1} (entry 0 is ignored). Entries on
/// zero-gain edges are ignored (the constraint does not exist there). The
/// returned `chain_feasible` reports whether the *inactive* chain
/// constraints also hold at the solution; only then is the point feasible
/// for the full problem. Failure code "infeasible" as for waterfill_solve,
/// including the case where the active equalities contradict the bounds.
util::Result<WaterfillSolution> waterfill_solve_chained(
    const sdf::PipelineSpec& pipeline, const std::vector<double>& b,
    Cycles tau0, Cycles deadline, const std::vector<std::uint8_t>& chain_active);

/// Solve the full problem exactly: pool adjacent violators in z-space to
/// find the active chain set, then return waterfill_solve_chained on it
/// with `chain_active` set. Failure code "infeasible" as above.
util::Result<WaterfillSolution> waterfill_solve_pooled(
    const sdf::PipelineSpec& pipeline, const std::vector<double>& b,
    Cycles tau0, Cycles deadline);

}  // namespace ripple::core
