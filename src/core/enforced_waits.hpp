// The enforced-waits scheduling strategy (paper Section 4, Figure 1).
//
// Each node n_i is given a fixed wait w_i appended to every firing, so its
// firing interval is x_i = t_i + w_i. Choosing w minimizes the pipeline's
// active fraction
//
//     T(w) = (1/N) * sum_i t_i / (t_i + w_i)
//
// subject to
//     (t_0 + w_0) * rho0          <= v            (arrival-rate stability)
//     (t_i + w_i) * g_{i-1}       <= t_{i-1} + w_{i-1}   (chain stability)
//     sum_i b_i * (t_i + w_i)     <= D            (deadline budget)
//     w_i                         >= 0
//
// where the b_i are worst-case queue-depth multipliers calibrated against
// simulation (see calib/). The problem is convex in x = t + w with linear
// constraints. solve() finds the active chain constraints by pooling
// adjacent violators and computes the optimum in closed form on that set
// (core/waterfill.hpp); every returned schedule carries a KKT certificate.
#pragma once

#include <vector>

#include "opt/kkt.hpp"
#include "opt/problem.hpp"
#include "sdf/pipeline.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::core {

/// Worst-case queue multipliers b_i: an input to node i may wait up to
/// b_i firings before being consumed. The paper calibrates {1, 3, 9, 6} for
/// the BLAST pipeline.
struct EnforcedWaitsConfig {
  std::vector<double> b;

  /// The paper's optimistic starting point: b_i = max(1, ceil(g_i)).
  static EnforcedWaitsConfig optimistic(const sdf::PipelineSpec& pipeline);
};

/// A solved schedule.
struct EnforcedWaitsSchedule {
  std::vector<Cycles> waits;             ///< w_i >= 0
  std::vector<Cycles> firing_intervals;  ///< x_i = t_i + w_i
  double predicted_active_fraction = 1.0;
  Cycles deadline_budget_used = 0.0;     ///< sum_i b_i x_i
  opt::KktReport kkt;                    ///< optimality certificate
};

class EnforcedWaitsStrategy {
 public:
  /// Throws std::logic_error if b is missing a multiplier per node or has a
  /// multiplier below 1 (an item always waits at least one firing).
  EnforcedWaitsStrategy(sdf::PipelineSpec pipeline, EnforcedWaitsConfig config);

  const sdf::PipelineSpec& pipeline() const noexcept { return pipeline_; }
  const EnforcedWaitsConfig& config() const noexcept { return config_; }

  /// Exact feasibility: the componentwise-minimal chain-feasible intervals L
  /// must satisfy the rate bound and the deadline budget.
  bool is_feasible(Cycles tau0, Cycles deadline) const;

  /// Smallest deadline for which a feasible schedule exists at this tau0
  /// (infinite when the rate constraint alone is violated).
  Cycles min_feasible_deadline(Cycles tau0) const;

  /// Smallest inter-arrival time tau0 (= highest sustainable rate) for which
  /// a feasible schedule exists at this deadline; infinite when the deadline
  /// is below the minimal budget, so no rate is ever feasible. The admission
  /// controller sheds load down to 1/min_feasible_tau0 when the offered rate
  /// exceeds it.
  Cycles min_feasible_tau0(Cycles deadline) const;

  /// Solve Figure 1. Failure codes: "infeasible" carries the violated
  /// constraint in its message; "uncertified" (never seen on the paper grid
  /// or in the randomized tests) carries the KKT residuals of a closed-form
  /// point that failed the optimality certificate.
  util::Result<EnforcedWaitsSchedule> solve(Cycles tau0, Cycles deadline) const;

  /// The Figure 1 problem in x-space (exposed for cross-checking solvers).
  opt::ConvexProblem build_problem(Cycles tau0, Cycles deadline) const;

  /// A strictly interior start for the barrier solver; empty when the
  /// feasible region has (numerically) no interior.
  linalg::Vector interior_start(Cycles tau0, Cycles deadline) const;

  /// Active fraction of a given schedule x (no feasibility check).
  double active_fraction(const std::vector<Cycles>& firing_intervals) const;

 private:
  EnforcedWaitsSchedule make_schedule(std::vector<Cycles> intervals,
                                      const opt::ConvexProblem& problem) const;

  sdf::PipelineSpec pipeline_;
  EnforcedWaitsConfig config_;
  std::vector<Cycles> minimal_intervals_;  ///< cached chain-feasible floor L
  Cycles minimal_budget_ = 0.0;            ///< cached sum b_i L_i
};

}  // namespace ripple::core
