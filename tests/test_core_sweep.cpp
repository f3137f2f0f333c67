#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "blast/canonical.hpp"

namespace ripple::core {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

EnforcedWaitsConfig paper_config() {
  return EnforcedWaitsConfig{blast::paper_calibrated_b()};
}

TEST(SweepGrid, LinearSpacingInclusive) {
  const auto grid = SweepGrid::linear(1.0, 5.0, 5, 10.0, 20.0, 3);
  ASSERT_EQ(grid.tau0_values.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.tau0_values.front(), 1.0);
  EXPECT_DOUBLE_EQ(grid.tau0_values.back(), 5.0);
  EXPECT_DOUBLE_EQ(grid.tau0_values[1], 2.0);
  ASSERT_EQ(grid.deadline_values.size(), 3u);
  EXPECT_DOUBLE_EQ(grid.deadline_values[1], 15.0);
  EXPECT_EQ(grid.cell_count(), 15u);
}

TEST(SweepGrid, SinglePointAxis) {
  const auto grid = SweepGrid::linear(2.0, 9.0, 1, 5.0, 5.0, 1);
  EXPECT_DOUBLE_EQ(grid.tau0_values[0], 2.0);
  EXPECT_DOUBLE_EQ(grid.deadline_values[0], 5.0);
}

TEST(SweepGrid, PaperRangesMatchPaper) {
  const auto grid = SweepGrid::paper_ranges(4, 4);
  EXPECT_DOUBLE_EQ(grid.tau0_values.front(), 1.0);
  EXPECT_DOUBLE_EQ(grid.tau0_values.back(), 100.0);
  EXPECT_DOUBLE_EQ(grid.deadline_values.front(), 2e4);
  EXPECT_DOUBLE_EQ(grid.deadline_values.back(), 3.5e5);
}

TEST(SweepGrid, RejectsDegenerate) {
  EXPECT_THROW((void)SweepGrid::linear(1.0, 2.0, 0, 1.0, 2.0, 1),
               std::logic_error);
  EXPECT_THROW((void)SweepGrid::linear(2.0, 1.0, 2, 1.0, 2.0, 1),
               std::logic_error);
}

TEST(RunSweep, CellsMatchDirectSolves) {
  const auto pipeline = blast_pipeline();
  const auto grid = SweepGrid::linear(10.0, 100.0, 3, 5e4, 3.5e5, 3);
  const auto surface = run_sweep(pipeline, paper_config(), {}, grid);

  const EnforcedWaitsStrategy enforced(pipeline, paper_config());
  const MonolithicStrategy monolithic(pipeline, {});
  for (std::size_t ti = 0; ti < 3; ++ti) {
    for (std::size_t di = 0; di < 3; ++di) {
      const SweepCell& cell = surface.cell(ti, di);
      auto e = enforced.solve(cell.tau0, cell.deadline);
      auto m = monolithic.solve(cell.tau0, cell.deadline);
      EXPECT_EQ(cell.enforced_feasible, e.ok());
      EXPECT_EQ(cell.monolithic_feasible, m.ok());
      if (e.ok()) {
        EXPECT_NEAR(cell.enforced_active_fraction,
                    e.value().predicted_active_fraction, 1e-9);
      }
      if (m.ok()) {
        EXPECT_NEAR(cell.monolithic_active_fraction,
                    m.value().predicted_active_fraction, 1e-12);
        EXPECT_EQ(cell.monolithic_block, m.value().block_size);
      }
    }
  }
}

TEST(RunSweep, ParallelMatchesSerial) {
  const auto pipeline = blast_pipeline();
  const auto grid = SweepGrid::linear(5.0, 100.0, 4, 3e4, 3.5e5, 4);
  const auto serial = run_sweep(pipeline, paper_config(), {}, grid);
  util::ThreadPool pool(4);
  const auto parallel = run_sweep(pipeline, paper_config(), {}, grid, {&pool});
  ASSERT_EQ(serial.cells().size(), parallel.cells().size());
  for (std::size_t i = 0; i < serial.cells().size(); ++i) {
    EXPECT_EQ(serial.cells()[i].enforced_feasible,
              parallel.cells()[i].enforced_feasible);
    EXPECT_NEAR(serial.cells()[i].enforced_active_fraction,
                parallel.cells()[i].enforced_active_fraction, 1e-9);
    EXPECT_EQ(serial.cells()[i].monolithic_block,
              parallel.cells()[i].monolithic_block);
  }
}

/// FNV-1a over each cell's feasibility flags, both active fractions and the
/// monolithic block — the same fields, in the same order, as the offline
/// planning benchmark's surface digest.
std::uint64_t surface_digest(const SweepSurface& surface) {
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  for (const SweepCell& cell : surface.cells()) {
    const unsigned char flags = static_cast<unsigned char>(
        (cell.enforced_feasible ? 1 : 0) | (cell.monolithic_feasible ? 2 : 0));
    mix(&flags, 1);
    mix(&cell.enforced_active_fraction, sizeof(double));
    mix(&cell.monolithic_active_fraction, sizeof(double));
    mix(&cell.monolithic_block, sizeof(cell.monolithic_block));
  }
  return hash;
}

TEST(RunSweep, GoldenDigestOnPaperGrid) {
  // Pins every bit of the 100x100 paper-grid surface at two b vectors: the
  // paper's calibrated b and the optimistic b, whose chain constraints are
  // active over a larger share of the grid.
  const auto pipeline = blast_pipeline();
  const auto grid = SweepGrid::paper_ranges(100, 100);
  EXPECT_EQ(surface_digest(run_sweep(pipeline, paper_config(), {}, grid)),
            0xb316aa15d55a0f1fULL);
  EXPECT_EQ(surface_digest(run_sweep(
                pipeline, EnforcedWaitsConfig::optimistic(pipeline), {}, grid)),
            0xd657ca8e62fea678ULL);
}

TEST(RunSweep, InfeasibleCellsChargedFullFraction) {
  const auto grid = SweepGrid::linear(1.0, 1.0, 1, 3.5e5, 3.5e5, 1);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  const SweepCell& cell = surface.cell(0, 0);
  EXPECT_FALSE(cell.enforced_feasible);
  EXPECT_FALSE(cell.monolithic_feasible);
  EXPECT_DOUBLE_EQ(cell.enforced_active_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cell.monolithic_active_fraction, 1.0);
  EXPECT_DOUBLE_EQ(cell.difference(), 0.0);
}

TEST(Dominance, ReproducesPaperFigure4Structure) {
  // Coarse version of the paper's grid; the qualitative claims must hold:
  // enforced waits win for fast arrivals + slack deadlines (by >= 0.4),
  // monolithic wins for slow arrivals + tight deadlines. The 12-point tau0
  // axis (step 9) lands on tau0 = 10, inside the band where the monolithic
  // strategy is barely stable and the gap is widest.
  const auto grid = SweepGrid::paper_ranges(12, 8);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  const DominanceSummary summary = summarize_dominance(surface);

  EXPECT_EQ(summary.cells_total, 96u);
  EXPECT_GT(summary.enforced_wins, 0u);
  EXPECT_GT(summary.monolithic_wins, 0u);
  EXPECT_GE(summary.max_enforced_advantage, 0.4);
  // Enforced-waits' best region: fast arrivals (small tau0), slack deadline.
  EXPECT_LT(summary.argmax_enforced_tau0, 40.0);
  EXPECT_GT(summary.argmax_enforced_deadline, 1e5);
  // Monolithic's best region: tight deadline.
  EXPECT_LT(summary.argmax_monolithic_deadline, 1.5e5);
}

TEST(Dominance, EmptyishGridCounts) {
  const auto grid = SweepGrid::linear(1.0, 1.5, 2, 2.05e4, 2.1e4, 2);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  const DominanceSummary summary = summarize_dominance(surface);
  EXPECT_EQ(summary.cells_total, 4u);
  EXPECT_EQ(summary.neither, 4u);  // all infeasible down there
}

TEST(Surface, CsvRoundTripStructure) {
  const auto grid = SweepGrid::linear(20.0, 100.0, 2, 1e5, 3.5e5, 2);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  std::ostringstream out;
  surface.write_csv(out);
  const std::string text = out.str();
  // Header + 4 rows.
  std::size_t lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 5u);
  EXPECT_NE(text.find("tau0,deadline,enforced_feasible"), std::string::npos);
}

TEST(Surface, CellIndexValidation) {
  const auto grid = SweepGrid::linear(20.0, 100.0, 2, 1e5, 3.5e5, 2);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  EXPECT_THROW((void)surface.cell(2, 0), std::logic_error);
  EXPECT_THROW((void)surface.cell(0, 2), std::logic_error);
}

}  // namespace
}  // namespace ripple::core
