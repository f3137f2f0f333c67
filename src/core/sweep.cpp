#include "core/sweep.hpp"

#include <ostream>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/string_utils.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::core {

SweepGrid SweepGrid::linear(Cycles tau0_lo, Cycles tau0_hi,
                            std::size_t tau0_points, Cycles d_lo, Cycles d_hi,
                            std::size_t deadline_points) {
  RIPPLE_REQUIRE(tau0_points >= 1 && deadline_points >= 1,
                 "grid needs at least one point per axis");
  RIPPLE_REQUIRE(tau0_hi >= tau0_lo && d_hi >= d_lo, "ranges must be ordered");
  SweepGrid grid;
  grid.tau0_values.reserve(tau0_points);
  grid.deadline_values.reserve(deadline_points);
  for (std::size_t i = 0; i < tau0_points; ++i) {
    const double f = tau0_points == 1
                         ? 0.0
                         : static_cast<double>(i) / static_cast<double>(tau0_points - 1);
    grid.tau0_values.push_back(tau0_lo + f * (tau0_hi - tau0_lo));
  }
  for (std::size_t i = 0; i < deadline_points; ++i) {
    const double f = deadline_points == 1
                         ? 0.0
                         : static_cast<double>(i) / static_cast<double>(deadline_points - 1);
    grid.deadline_values.push_back(d_lo + f * (d_hi - d_lo));
  }
  return grid;
}

SweepGrid SweepGrid::paper_ranges(std::size_t tau0_points,
                                  std::size_t deadline_points) {
  return linear(1.0, 100.0, tau0_points, 2e4, 3.5e5, deadline_points);
}

SweepSurface::SweepSurface(SweepGrid grid, std::vector<SweepCell> cells)
    : grid_(std::move(grid)), cells_(std::move(cells)) {
  RIPPLE_REQUIRE(cells_.size() == grid_.cell_count(),
                 "cell vector must match grid size");
}

const SweepCell& SweepSurface::cell(std::size_t tau0_index,
                                    std::size_t deadline_index) const {
  RIPPLE_REQUIRE(tau0_index < grid_.tau0_values.size(), "tau0 index range");
  RIPPLE_REQUIRE(deadline_index < grid_.deadline_values.size(), "D index range");
  return cells_[tau0_index * grid_.deadline_values.size() + deadline_index];
}

void SweepSurface::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.header({"tau0", "deadline", "enforced_feasible", "enforced_active_fraction",
              "monolithic_feasible", "monolithic_active_fraction",
              "monolithic_block", "difference"});
  for (const SweepCell& cell : cells_) {
    csv.row({util::format_double(cell.tau0, 6),
             util::format_double(cell.deadline, 6),
             cell.enforced_feasible ? "1" : "0",
             util::format_double(cell.enforced_active_fraction, 6),
             cell.monolithic_feasible ? "1" : "0",
             util::format_double(cell.monolithic_active_fraction, 6),
             std::to_string(cell.monolithic_block),
             util::format_double(cell.difference(), 6)});
  }
}

SweepSurface run_sweep(const sdf::PipelineSpec& pipeline,
                       const EnforcedWaitsConfig& enforced_config,
                       const MonolithicConfig& monolithic_config,
                       const SweepGrid& grid, const SweepOptions& options) {
  const EnforcedWaitsStrategy enforced(pipeline, enforced_config);
  const MonolithicStrategy monolithic(pipeline, monolithic_config);

  const std::size_t d_count = grid.deadline_values.size();
  std::vector<SweepCell> cells(grid.cell_count());

#if RIPPLE_OBS
  // Handles resolved once per sweep; workers only touch atomics.
  obs::Counter* cells_solved = nullptr;
  obs::LatencyHistogram* row_solve_us = nullptr;
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    cells_solved = registry.counter("sweep.cells_solved");
    row_solve_us = registry.histogram("sweep.row_solve_us");
  }
#endif

  // One tau0 row per task: the monolithic blocks of the whole row come from
  // one run walk, the enforced-waits schedules cell by cell.
  auto sweep_row = [&](std::size_t row) {
    const Cycles tau0 = grid.tau0_values[row];

#if RIPPLE_OBS
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    double solve_begin_us = 0.0;
    if (trace.active()) {
      solve_begin_us = obs::TraceSession::global().host_now_us();
      trace.begin(obs::Domain::kHost, trace.track(), "row_solve",
                  solve_begin_us);
    }
    if (cells_solved != nullptr) cells_solved->add(d_count);
#endif

    const std::vector<std::int64_t> blocks =
        monolithic.solve_row(tau0, grid.deadline_values);
    for (std::size_t di = 0; di < d_count; ++di) {
      SweepCell& cell = cells[row * d_count + di];
      cell.tau0 = tau0;
      cell.deadline = grid.deadline_values[di];
      if (auto solved = enforced.solve(tau0, cell.deadline); solved.ok()) {
        cell.enforced_feasible = true;
        cell.enforced_active_fraction =
            solved.value().predicted_active_fraction;
      }
      if (blocks[di] > 0) {
        cell.monolithic_feasible = true;
        cell.monolithic_active_fraction =
            monolithic.active_fraction(blocks[di], tau0);
        cell.monolithic_block = blocks[di];
      }
    }

#if RIPPLE_OBS
    if (trace.active()) {
      const double solve_end_us = obs::TraceSession::global().host_now_us();
      trace.end(obs::Domain::kHost, trace.track(), "row_solve", solve_end_us);
      if (row_solve_us != nullptr) {
        row_solve_us->record(solve_end_us - solve_begin_us);
      }
    }
#endif
  };

  const std::size_t rows = grid.tau0_values.size();
  if (options.pool != nullptr) {
    options.pool->parallel_for(rows, sweep_row);
  } else {
    for (std::size_t row = 0; row < rows; ++row) sweep_row(row);
  }
  return SweepSurface(grid, std::move(cells));
}

DominanceSummary summarize_dominance(const SweepSurface& surface) {
  DominanceSummary summary;
  for (const SweepCell& cell : surface.cells()) {
    ++summary.cells_total;
    if (cell.enforced_feasible && cell.monolithic_feasible) ++summary.both_feasible;
    else if (cell.enforced_feasible) ++summary.enforced_only;
    else if (cell.monolithic_feasible) ++summary.monolithic_only;
    else ++summary.neither;

    const double diff = cell.difference();
    if (diff > 0.0) {
      ++summary.enforced_wins;
      if (diff > summary.max_enforced_advantage) {
        summary.max_enforced_advantage = diff;
        summary.argmax_enforced_tau0 = cell.tau0;
        summary.argmax_enforced_deadline = cell.deadline;
      }
    } else if (diff < 0.0) {
      ++summary.monolithic_wins;
      if (-diff > summary.max_monolithic_advantage) {
        summary.max_monolithic_advantage = -diff;
        summary.argmax_monolithic_tau0 = cell.tau0;
        summary.argmax_monolithic_deadline = cell.deadline;
      }
    }
  }
  return summary;
}

}  // namespace ripple::core
