// Reproduces the monolithic half of paper Figure 3: optimized active
// fraction over the (tau0, D) space with b = 1, S = 1.
//
// Expected shape (paper Section 6.3): active fraction scales inversely with
// tau0 and is mostly insensitive to D (block size grows with D but the
// utilization tends to a constant, rho0 * sum G_i t_i / v).
#include "bench_common.hpp"

#include "core/report.hpp"
#include "core/sweep.hpp"
#include "sdf/analysis.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

int main(int argc, const char** argv) {
  using namespace ripple;
  util::CliParser cli;
  bench::add_common_options(cli);
  cli.add_int("tau0-points", 12, "grid points on the tau0 axis");
  cli.add_int("d-points", 8, "grid points on the deadline axis");
  bench::parse_or_exit(cli, argc, argv,
                       "bench_fig3_monolithic — Figure 3 (monolithic)");

  const std::size_t tau0_points = cli.get_flag("full")
                                      ? 34
                                      : static_cast<std::size_t>(cli.get_int("tau0-points"));
  const std::size_t d_points = cli.get_flag("full")
                                   ? 12
                                   : static_cast<std::size_t>(cli.get_int("d-points"));

  bench::print_banner("Figure 3 (right): monolithic active fraction surface");
  const auto pipeline = blast::canonical_blast_pipeline();
  std::cout << "stability limit: tau0 >= "
            << bench::fmt(sdf::min_interarrival_monolithic(pipeline), 3)
            << " cycles (mean service per input)\n\n";

  util::ThreadPool pool;
  util::Stopwatch watch;
  const auto surface =
      core::run_sweep(pipeline, bench::paper_enforced_config(), {},
                      core::SweepGrid::paper_ranges(tau0_points, d_points),
                      {&pool});

  std::vector<std::string> headers{"tau0 \\ D"};
  for (Cycles d : surface.grid().deadline_values) {
    headers.push_back(bench::fmt(d, 0));
  }
  util::TextTable table(headers);
  util::TextTable blocks(headers);  // optimal block sizes M
  for (std::size_t ti = 0; ti < surface.grid().tau0_values.size(); ++ti) {
    std::vector<std::string> row{bench::fmt(surface.grid().tau0_values[ti], 1)};
    std::vector<std::string> block_row = row;
    for (std::size_t di = 0; di < surface.grid().deadline_values.size(); ++di) {
      const auto& cell = surface.cell(ti, di);
      row.push_back(cell.monolithic_feasible
                        ? bench::fmt(cell.monolithic_active_fraction, 4)
                        : "--");
      block_row.push_back(cell.monolithic_feasible
                              ? std::to_string(cell.monolithic_block)
                              : "--");
    }
    table.add_row(std::move(row));
    blocks.add_row(std::move(block_row));
  }
  std::cout << "Active fraction:\n";
  table.print(std::cout);
  std::cout << "\nOptimal block size M:\n";
  blocks.print(std::cout);
  std::cout << "\n(" << surface.grid().cell_count() << " cells in "
            << bench::fmt(watch.elapsed_seconds(), 2) << " s; '--' = infeasible)\n";

  // Shape assertions.
  const auto& grid = surface.grid();
  const std::size_t last_t = grid.tau0_values.size() - 1;
  const std::size_t last_d = grid.deadline_values.size() - 1;
  bool decreases_with_tau0 = true;
  for (std::size_t ti = 1; ti <= last_t; ++ti) {
    const auto& prev = surface.cell(ti - 1, last_d);
    const auto& cur = surface.cell(ti, last_d);
    if (prev.monolithic_feasible && cur.monolithic_feasible &&
        cur.monolithic_active_fraction >
            prev.monolithic_active_fraction + 1e-9) {
      decreases_with_tau0 = false;
    }
  }
  const auto& hi_t_mid_d = surface.cell(last_t, last_d / 2);
  const auto& hi_t_hi_d = surface.cell(last_t, last_d);
  const bool d_insensitive =
      hi_t_mid_d.monolithic_feasible && hi_t_hi_d.monolithic_feasible &&
      std::abs(hi_t_mid_d.monolithic_active_fraction -
               hi_t_hi_d.monolithic_active_fraction) < 0.05;
  std::cout << "active fraction decreases with tau0:  "
            << (decreases_with_tau0 ? "yes" : "NO") << "\n"
            << "insensitive to D once feasible:       "
            << (d_insensitive ? "yes" : "NO") << std::endl;

  if (auto csv_out = bench::open_csv(cli); csv_out.is_open()) {
    surface.write_csv(csv_out);
  }
  if (auto json_out = bench::open_json(cli); json_out.is_open()) {
    core::write_surface_json(json_out, surface);
  }
  return (decreases_with_tau0 && d_insensitive) ? 0 : 1;
}
