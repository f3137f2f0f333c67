// Parameter-space sweeps over (tau0, D): the machinery behind the paper's
// Figures 3 and 4.
//
// For every grid cell both strategies are optimized analytically; cells where
// a strategy is infeasible are recorded as such and, for difference plots,
// charged an active fraction of 1.0 (an infeasible strategy cannot yield any
// processor time because it cannot even keep up).
//
// On RIPPLE_OBS builds with recording enabled, the sweep emits a host-domain
// "cell_solve" trace span per cell and feeds the `sweep.*` metrics — cells
// solved and per-cell solve latency (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/enforced_waits.hpp"
#include "core/monolithic.hpp"
#include "sdf/pipeline.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace ripple::core {

struct SweepGrid {
  std::vector<Cycles> tau0_values;
  std::vector<Cycles> deadline_values;

  /// Evenly spaced grid over the paper's ranges: tau0 in [1, 100],
  /// D in [2e4, 3.5e5].
  static SweepGrid paper_ranges(std::size_t tau0_points, std::size_t deadline_points);

  /// Evenly spaced over arbitrary ranges.
  static SweepGrid linear(Cycles tau0_lo, Cycles tau0_hi, std::size_t tau0_points,
                          Cycles d_lo, Cycles d_hi, std::size_t deadline_points);

  std::size_t cell_count() const noexcept {
    return tau0_values.size() * deadline_values.size();
  }
};

struct SweepCell {
  Cycles tau0 = 0.0;
  Cycles deadline = 0.0;

  bool enforced_feasible = false;
  double enforced_active_fraction = 1.0;  ///< 1.0 when infeasible

  bool monolithic_feasible = false;
  double monolithic_active_fraction = 1.0;  ///< 1.0 when infeasible
  std::int64_t monolithic_block = 0;

  /// Figure 4's quantity: monolithic minus enforced-waits active fraction.
  /// Positive = enforced waits better.
  double difference() const noexcept {
    return monolithic_active_fraction - enforced_active_fraction;
  }
};

/// Row-major surface: cell(ti, di) for tau0 index ti and deadline index di.
class SweepSurface {
 public:
  SweepSurface(SweepGrid grid, std::vector<SweepCell> cells);

  const SweepGrid& grid() const noexcept { return grid_; }
  const SweepCell& cell(std::size_t tau0_index, std::size_t deadline_index) const;
  const std::vector<SweepCell>& cells() const noexcept { return cells_; }

  /// CSV with one row per cell.
  void write_csv(std::ostream& out) const;

 private:
  SweepGrid grid_;
  std::vector<SweepCell> cells_;
};

/// Dominance-region statistics summarizing Figure 4.
struct DominanceSummary {
  std::size_t cells_total = 0;
  std::size_t both_feasible = 0;
  std::size_t enforced_only = 0;
  std::size_t monolithic_only = 0;
  std::size_t neither = 0;

  std::size_t enforced_wins = 0;    ///< difference > 0 (any feasibility)
  std::size_t monolithic_wins = 0;  ///< difference < 0

  double max_enforced_advantage = 0.0;
  Cycles argmax_enforced_tau0 = 0.0;
  Cycles argmax_enforced_deadline = 0.0;

  double max_monolithic_advantage = 0.0;
  Cycles argmax_monolithic_tau0 = 0.0;
  Cycles argmax_monolithic_deadline = 0.0;
};

/// Execution knobs for run_sweep.
struct SweepOptions {
  /// Null = serial.
  util::ThreadPool* pool = nullptr;
  /// Consecutive cells a worker claims per atomic fetch (cell outputs are
  /// index-addressed, so neither the grain nor the thread count changes the
  /// surface).
  std::size_t grain = 1;
};

/// Optimize both strategies over every grid cell.
SweepSurface run_sweep(const sdf::PipelineSpec& pipeline,
                       const EnforcedWaitsConfig& enforced_config,
                       const MonolithicConfig& monolithic_config,
                       const SweepGrid& grid, const SweepOptions& options = {});

DominanceSummary summarize_dominance(const SweepSurface& surface);

}  // namespace ripple::core
