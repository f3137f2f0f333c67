// Reproduces the enforced-waits half of paper Figure 3: optimized active
// fraction over the (tau0, D) parameter space, tau0 in [1, 100] cycles and
// D in [2e4, 3.5e5] cycles, with the calibrated b = {1, 3, 9, 6}.
//
// Expected shape (paper Section 6.3): active fraction scales inversely with
// D ("deadline slack" is converted into waits) and is insensitive to tau0
// except at the smallest values, where the arrival-rate constraint binds or
// the pipeline is infeasible outright.
#include "bench_common.hpp"

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

int main(int argc, const char** argv) {
  using namespace ripple;
  util::CliParser cli;
  bench::add_common_options(cli);
  cli.add_int("tau0-points", 12, "grid points on the tau0 axis");
  cli.add_int("d-points", 8, "grid points on the deadline axis");
  bench::parse_or_exit(cli, argc, argv,
                       "bench_fig3_enforced — Figure 3 (enforced waits)");

  const std::size_t tau0_points = cli.get_flag("full")
                                      ? 34
                                      : static_cast<std::size_t>(cli.get_int("tau0-points"));
  const std::size_t d_points = cli.get_flag("full")
                                   ? 12
                                   : static_cast<std::size_t>(cli.get_int("d-points"));

  bench::print_banner("Figure 3 (left): enforced-waits active fraction surface");
  const auto pipeline = blast::canonical_blast_pipeline();
  util::ThreadPool pool;
  util::Stopwatch watch;
  const auto surface =
      core::run_sweep(pipeline, bench::paper_enforced_config(), {},
                      core::SweepGrid::paper_ranges(tau0_points, d_points),
                      {&pool});

  // Table: rows = tau0, columns = D; "--" marks infeasible cells.
  std::vector<std::string> headers{"tau0 \\ D"};
  for (Cycles d : surface.grid().deadline_values) {
    headers.push_back(bench::fmt(d, 0));
  }
  util::TextTable table(headers);
  for (std::size_t ti = 0; ti < surface.grid().tau0_values.size(); ++ti) {
    std::vector<std::string> row{bench::fmt(surface.grid().tau0_values[ti], 1)};
    for (std::size_t di = 0; di < surface.grid().deadline_values.size(); ++di) {
      const auto& cell = surface.cell(ti, di);
      row.push_back(cell.enforced_feasible
                        ? bench::fmt(cell.enforced_active_fraction, 4)
                        : "--");
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(" << surface.grid().cell_count() << " cells in "
            << bench::fmt(watch.elapsed_seconds(), 2) << " s; '--' = infeasible)\n";

  // Shape assertions matching the paper's qualitative claims.
  const auto& grid = surface.grid();
  const std::size_t last_t = grid.tau0_values.size() - 1;
  const std::size_t last_d = grid.deadline_values.size() - 1;
  bool decreases_with_d = true;
  for (std::size_t di = 1; di <= last_d; ++di) {
    const auto& prev = surface.cell(last_t, di - 1);
    const auto& cur = surface.cell(last_t, di);
    if (prev.enforced_feasible && cur.enforced_feasible &&
        cur.enforced_active_fraction > prev.enforced_active_fraction + 1e-9) {
      decreases_with_d = false;
    }
  }
  const auto& mid_d_lo_t = surface.cell(last_t / 2, last_d);
  const auto& mid_d_hi_t = surface.cell(last_t, last_d);
  const bool tau0_insensitive =
      mid_d_lo_t.enforced_feasible && mid_d_hi_t.enforced_feasible &&
      std::abs(mid_d_lo_t.enforced_active_fraction -
               mid_d_hi_t.enforced_active_fraction) < 0.1;
  std::cout << "active fraction decreases with D:            "
            << (decreases_with_d ? "yes" : "NO") << "\n"
            << "insensitive to tau0 away from the frontier:  "
            << (tau0_insensitive ? "yes" : "NO") << std::endl;

  if (auto csv_out = bench::open_csv(cli); csv_out.is_open()) {
    surface.write_csv(csv_out);
  }
  if (auto json_out = bench::open_json(cli); json_out.is_open()) {
    core::write_surface_json(json_out, surface);
  }
  return (decreases_with_d && tau0_insensitive) ? 0 : 1;
}
