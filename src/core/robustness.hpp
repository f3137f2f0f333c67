// Schedule sensitivity analysis: what a designer gets for relaxing each
// constraint of the enforced-waits problem.
//
// By Lagrangian duality, the deadline multiplier lambda of the optimum
// equals -dT*/dD: the rate at which the optimal active fraction falls per
// extra cycle of deadline. The pooled water-filling solve recovers lambda
// exactly, chain constraints included; this module packages it together
// with per-constraint slacks so tools can answer "is the deadline, the
// arrival rate, or a chain coupling what's limiting this schedule?".
#pragma once

#include <string>
#include <vector>

#include "core/enforced_waits.hpp"
#include "sdf/pipeline.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::core {

struct ConstraintSlack {
  std::string label;     ///< "rate", "deadline", "chain[i]", "wait[i]"
  double slack = 0.0;    ///< rhs - lhs at the optimum (0 = active)
  bool active = false;   ///< slack within tolerance of zero
};

struct ScheduleSensitivity {
  /// -d(active fraction)/dD at the optimum: the marginal value of deadline,
  /// exact (the pooled water-filling multiplier over N).
  double deadline_multiplier = 0.0;

  std::vector<ConstraintSlack> slacks;

  /// Label of the binding constraint with the largest multiplier influence:
  /// "deadline", "rate", or "chain" (heuristic: the active constraint family
  /// that, when relaxed, changes the optimum).
  std::string bottleneck;
};

/// Analyze the optimum at (tau0, D). Fails with "infeasible" when no
/// schedule exists there.
util::Result<ScheduleSensitivity> analyze_sensitivity(
    const EnforcedWaitsStrategy& strategy, Cycles tau0, Cycles deadline,
    double active_tolerance = 1e-6);

}  // namespace ripple::core
