// Reproduces paper Figure 4: the difference between the monolithic and
// enforced-waits active fractions (monolithic minus enforced-waits) across
// the (tau0, D) space. Positive values mean enforced waits win.
//
// Expected shape (paper Section 6.3): enforced waits dominate over a large
// portion of the space, by at least 0.4 absolute in the fast-arrival /
// slack-deadline corner; the monolithic strategy dominates for slow arrivals
// with little deadline slack.
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
                       "bench_fig4_difference — Figure 4 (dominance regions)");

  const std::size_t tau0_points = cli.get_flag("full")
                                      ? 34
                                      : static_cast<std::size_t>(cli.get_int("tau0-points"));
  const std::size_t d_points = cli.get_flag("full")
                                   ? 12
                                   : static_cast<std::size_t>(cli.get_int("d-points"));

  bench::print_banner(
      "Figure 4: monolithic minus enforced-waits active fraction");
  util::ThreadPool pool;
  util::Stopwatch watch;
  const auto surface = core::run_sweep(
      blast::canonical_blast_pipeline(), bench::paper_enforced_config(), {},
      core::SweepGrid::paper_ranges(tau0_points, d_points), {&pool});

  std::vector<std::string> headers{"tau0 \\ D"};
  for (Cycles d : surface.grid().deadline_values) {
    headers.push_back(bench::fmt(d, 0));
  }
  util::TextTable table(headers);
  for (std::size_t ti = 0; ti < surface.grid().tau0_values.size(); ++ti) {
    std::vector<std::string> row{bench::fmt(surface.grid().tau0_values[ti], 1)};
    for (std::size_t di = 0; di < surface.grid().deadline_values.size(); ++di) {
      const auto& cell = surface.cell(ti, di);
      if (!cell.enforced_feasible && !cell.monolithic_feasible) {
        row.push_back("..");  // nothing works here
      } else {
        row.push_back(bench::fmt(cell.difference(), 3));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(positive = enforced waits better; infeasible strategies "
               "are charged active fraction 1; '..' = both infeasible)\n";

  const auto summary = core::summarize_dominance(surface);
  std::cout << "\ncells: " << summary.cells_total
            << "  both feasible: " << summary.both_feasible
            << "  enforced-only: " << summary.enforced_only
            << "  monolithic-only: " << summary.monolithic_only
            << "  neither: " << summary.neither << "\n";
  std::cout << "enforced-waits wins:  " << summary.enforced_wins
            << " cells, max advantage " << bench::fmt(summary.max_enforced_advantage, 3)
            << " at (tau0=" << bench::fmt(summary.argmax_enforced_tau0, 1)
            << ", D=" << bench::fmt(summary.argmax_enforced_deadline, 0) << ")\n";
  std::cout << "monolithic wins:      " << summary.monolithic_wins
            << " cells, max advantage "
            << bench::fmt(summary.max_monolithic_advantage, 3) << " at (tau0="
            << bench::fmt(summary.argmax_monolithic_tau0, 1) << ", D="
            << bench::fmt(summary.argmax_monolithic_deadline, 0) << ")\n";
  std::cout << "elapsed: " << bench::fmt(watch.elapsed_seconds(), 2) << " s\n";

  // Paper-shape checks.
  const bool enforced_wins_big = summary.max_enforced_advantage >= 0.4;
  const bool enforced_corner = summary.argmax_enforced_tau0 < 40.0 &&
                               summary.argmax_enforced_deadline > 1e5;
  const bool mono_corner = summary.argmax_monolithic_deadline < 1.5e5;
  std::cout << "\nenforced advantage >= 0.4 somewhere:      "
            << (enforced_wins_big ? "yes" : "NO") << "\n"
            << "enforced peak at fast arrivals + slack:   "
            << (enforced_corner ? "yes" : "NO") << "\n"
            << "monolithic peak at tight deadlines:       "
            << (mono_corner ? "yes" : "NO") << std::endl;

  if (auto csv_out = bench::open_csv(cli); csv_out.is_open()) {
    surface.write_csv(csv_out);
  }
  if (auto json_out = bench::open_json(cli); json_out.is_open()) {
    core::write_surface_json(json_out, surface);
  }
  return (enforced_wins_big && enforced_corner && mono_corner) ? 0 : 1;
}
