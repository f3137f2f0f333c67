// The monolithic batch-processing baseline (paper Section 5, Figure 2).
//
// The pipeline is scheduled as a unit: accumulate a block of M inputs
// (taking M/rho0 cycles), then run the whole throughput-oriented pipeline on
// the block. With average total gain G_i into node i, a block of M inputs
// costs mean service
//
//     Tbar(M) = sum_i ceil(M * G_i / v) * t_i
//
// and the active fraction is rho0 * Tbar(M) / M. Block size M is chosen to
// minimize that subject to
//
//     Tbar(M)              <= M / rho0        (stability)
//     b * M/rho0 + S*Tbar(M) <= D             (deadline, worst-case scaled)
//
// where b counts whole blocks that may queue ahead of an item and S scales
// mean to worst-case block service time.
//
// Tbar is a step function of M: it is constant on runs of M over which
// every ceil(M * G_i / v) is constant. Within a run the objective falls and
// the stability side relaxes as M grows, so the run's best block is its
// largest deadline-feasible M. solve() walks the runs in order and keeps
// the first strict minimum, which is exactly the block a scan over every M
// would pick.
#pragma once

#include <cstdint>

#include "sdf/pipeline.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace ripple::core {

struct MonolithicConfig {
  double b = 1.0;  ///< queue-depth multiplier (blocks ahead of a new item)
  double S = 1.0;  ///< worst-case/mean service scale: That(M) = S * Tbar(M)
};

struct MonolithicSchedule {
  std::int64_t block_size = 0;            ///< M
  double predicted_active_fraction = 1.0; ///< rho0 * Tbar(M) / M
  Cycles mean_block_service = 0.0;        ///< Tbar(M)
  Cycles worst_block_service = 0.0;       ///< S * Tbar(M)
  Cycles worst_case_latency = 0.0;        ///< b*M*tau0 + S*Tbar(M)
};

class MonolithicStrategy {
 public:
  MonolithicStrategy(sdf::PipelineSpec pipeline, MonolithicConfig config);

  const sdf::PipelineSpec& pipeline() const noexcept { return pipeline_; }
  const MonolithicConfig& config() const noexcept { return config_; }

  /// Tbar(M): mean service time for a block of M inputs.
  Cycles mean_block_service(std::int64_t block_size) const;

  /// Both Figure 2 constraints at a specific M.
  bool is_block_feasible(std::int64_t block_size, Cycles tau0,
                         Cycles deadline) const;

  /// Objective rho0 * Tbar(M)/M at a specific M.
  double active_fraction(std::int64_t block_size, Cycles tau0) const;

  /// Any feasible M at all?
  bool is_feasible(Cycles tau0, Cycles deadline) const;

  /// Largest M the deadline can possibly admit. The deadline constraint is
  /// b*M*tau0 + S*Tbar(M) <= D and Tbar(M) >= M * c with c the per-input
  /// service floor sum_i G_i t_i / v (every ceil() rounded down), so
  /// M <= D / (b*tau0 + S*c); every excluded M is infeasible.
  std::int64_t max_block_size(Cycles tau0, Cycles deadline) const;

  /// Exact optimizer over [1, max_block_size]: the run walk described at
  /// the top of this file. Ties go to the smallest block.
  util::Result<MonolithicSchedule> solve(Cycles tau0, Cycles deadline) const;

 private:
  MonolithicSchedule make_schedule(std::int64_t block_size, Cycles tau0) const;

  /// The run walk: the optimal feasible block in [1, max_block_size], or 0
  /// when there is none. With `first_feasible` it stops at the first
  /// feasible block instead.
  std::int64_t best_block(Cycles tau0, Cycles deadline,
                          bool first_feasible) const;

  sdf::PipelineSpec pipeline_;
  MonolithicConfig config_;
  std::vector<double> total_gains_;  // G_i
  double service_per_input_floor_ = 0.0;  // c = sum_i G_i t_i / v
};

}  // namespace ripple::core
