#include "core/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "blast/canonical.hpp"

namespace ripple::core {
namespace {

sdf::PipelineSpec blast_pipeline() { return blast::canonical_blast_pipeline(); }

EnforcedWaitsConfig paper_config() {
  return EnforcedWaitsConfig{blast::paper_calibrated_b()};
}

TEST(Report, EnforcedScheduleJson) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  auto solved = strategy.solve(20.0, 1.85e5);
  ASSERT_TRUE(solved.ok());
  std::ostringstream out;
  write_enforced_schedule_json(out, pipeline, paper_config(), solved.value(),
                               20.0, 1.85e5);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"strategy\":\"enforced_waits\""), std::string::npos);
  EXPECT_NE(text.find("\"tau0\":20"), std::string::npos);
  EXPECT_NE(text.find("\"b\":[1,3,9,6]"), std::string::npos);
  EXPECT_NE(text.find("\"firing_intervals\":["), std::string::npos);
  EXPECT_NE(text.find("\"kkt_satisfied\":true"), std::string::npos);
}

TEST(Report, MonolithicScheduleJson) {
  const auto pipeline = blast_pipeline();
  const MonolithicStrategy strategy(pipeline, {});
  auto solved = strategy.solve(20.0, 1.85e5);
  ASSERT_TRUE(solved.ok());
  std::ostringstream out;
  write_monolithic_schedule_json(out, pipeline, {}, solved.value(), 20.0,
                                 1.85e5);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"strategy\":\"monolithic\""), std::string::npos);
  EXPECT_NE(text.find("\"block_size\":" +
                      std::to_string(solved.value().block_size)),
            std::string::npos);
  EXPECT_NE(text.find("\"S\":1"), std::string::npos);
}

TEST(Report, SurfaceJsonCellCount) {
  const auto grid = SweepGrid::linear(20.0, 100.0, 3, 1e5, 3.5e5, 2);
  const auto surface = run_sweep(blast_pipeline(), paper_config(), {}, grid);
  std::ostringstream out;
  write_surface_json(out, surface);
  const std::string text = out.str();
  std::size_t cells = 0;
  for (std::size_t pos = 0;
       (pos = text.find("\"difference\"", pos)) != std::string::npos; ++pos) {
    ++cells;
  }
  EXPECT_EQ(cells, 6u);
  EXPECT_NE(text.find("\"tau0_values\":[20,60,100]"), std::string::npos);
}

TEST(Report, JsonIsSingleLineTerminated) {
  const auto pipeline = blast_pipeline();
  const EnforcedWaitsStrategy strategy(pipeline, paper_config());
  auto solved = strategy.solve(20.0, 1.85e5);
  ASSERT_TRUE(solved.ok());
  std::ostringstream out;
  write_enforced_schedule_json(out, pipeline, paper_config(), solved.value(),
                               20.0, 1.85e5);
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  // No embedded newlines besides the terminator (single-line JSON).
  EXPECT_EQ(text.find('\n'), text.size() - 1);
}

}  // namespace
}  // namespace ripple::core
