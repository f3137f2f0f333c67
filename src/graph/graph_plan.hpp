// Enforced-waits planning over GraphSpec DAGs (the per-edge generalization
// of core/enforced_waits.hpp).
//
// Each node u fires every x_u = t_u + w_u cycles; choosing w minimizes the
// graph's active fraction (1/N) sum_u t_u / x_u subject to
//
//     x_source * rho0 <= v                    (arrival-rate stability)
//     g_e * x_v       <= x_u   for each edge e = (u, v)   (edge stability)
//     sum_{i in p} b_i x_i <= D  for each source->sink path p  (deadline)
//     w_u >= 0
//
// On a linear graph the edge set is exactly the paper's chain and there is a
// single path, so the problem degenerates to Figure 1; GraphPlanner then
// delegates to EnforcedWaitsStrategy on the lowered PipelineSpec, making
// linear-graph plans bit-identical to the chain solver's. Genuine DAGs carry
// multiple path budgets — the single-lambda chained-waterfill closed form no
// longer applies, so the planner runs the log-barrier solver from a strictly
// interior point and certifies its optimum with a KKT check.
#pragma once

#include <memory>
#include <vector>

#include "core/enforced_waits.hpp"
#include "graph/graph_spec.hpp"
#include "opt/kkt.hpp"
#include "opt/problem.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::graph {

/// Worst-case queue multipliers b_i, indexed by graph node index.
struct GraphPlanConfig {
  std::vector<double> b;

  /// Optimistic default: b_u = max(1, ceil(max over out-edges g_e)) — the
  /// chain rule applied to the node's heaviest out-edge (1 at the sink).
  static GraphPlanConfig optimistic(const GraphSpec& graph);
};

/// A solved schedule, indexed by graph node index.
struct GraphSchedule {
  std::vector<Cycles> waits;             ///< w_u >= 0
  std::vector<Cycles> firing_intervals;  ///< x_u = t_u + w_u
  double predicted_active_fraction = 1.0;
  Cycles deadline_budget_used = 0.0;  ///< max over paths of sum b_i x_i
  opt::KktReport kkt;                 ///< optimality certificate
  bool lowered_linear = false;        ///< solved by chain-solver delegation
};

class GraphPlanner {
 public:
  /// Throws std::logic_error if b is missing a multiplier per node or has a
  /// multiplier below 1.
  GraphPlanner(GraphSpec graph, GraphPlanConfig config);

  const GraphSpec& graph() const noexcept { return graph_; }
  const GraphPlanConfig& config() const noexcept { return config_; }

  /// True when this planner delegates to the linear chain solver.
  bool delegates_to_chain() const noexcept { return linear_ != nullptr; }

  /// Exact feasibility: the DAG-minimal intervals L must satisfy the rate
  /// bound at the source and the max-path deadline budget.
  bool is_feasible(Cycles tau0, Cycles deadline) const;
  Cycles min_feasible_deadline(Cycles tau0) const;
  Cycles min_feasible_tau0(Cycles deadline) const;

  /// Solve the per-edge problem. Failure codes: "infeasible" (message names
  /// the violated constraint), "too_many_paths" (per-path budget set not
  /// enumerable), "uncertified" (the barrier point fails the KKT
  /// certificate; message gives the residuals), or a barrier failure code.
  util::Result<GraphSchedule> solve(Cycles tau0, Cycles deadline) const;

  /// The DAG problem in x-space (per-edge + per-path constraints), exposed
  /// for cross-checking solvers. Built for branching graphs only; linear
  /// planners delegate and tests should cross-check against the chain
  /// solver's build_problem instead.
  util::Result<opt::ConvexProblem> build_problem(Cycles tau0,
                                                 Cycles deadline) const;

  /// Active fraction of a given schedule (no feasibility check).
  double active_fraction(const std::vector<Cycles>& firing_intervals) const;

  /// DAG-minimal feasible intervals L (cached from the spec).
  const std::vector<Cycles>& minimal_intervals() const noexcept {
    return minimal_intervals_;
  }

 private:
  GraphSchedule make_schedule(std::vector<Cycles> intervals,
                              const opt::ConvexProblem& problem) const;
  linalg::Vector interior_start(Cycles tau0, Cycles deadline) const;

  GraphSpec graph_;
  GraphPlanConfig config_;
  std::vector<GraphPath> paths_;           ///< empty when not enumerable
  bool paths_enumerable_ = false;
  std::vector<Cycles> minimal_intervals_;  ///< DAG-feasible floor L
  Cycles minimal_budget_ = 0.0;            ///< max-path budget at L

  // Linear delegation: chain position -> graph node index, plus the wrapped
  // chain strategy over the lowered pipeline.
  std::vector<NodeIndex> chain_order_;
  std::unique_ptr<core::EnforcedWaitsStrategy> linear_;
};

}  // namespace ripple::graph
