// Closed-loop convergence: replay_trace() drives the controller against
// synthetic rate-step / rate-ramp / overload traces in virtual time and the
// steady-state plan is compared against the offline oracle (a cold solve at
// the true post-change rate's operating point).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "arrivals/nonstationary.hpp"
#include "core/enforced_waits.hpp"
#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"
#include "service/replay.hpp"

namespace ripple::service {
namespace {

// Same pipeline as the control tests: L = {20, 10, 10}, optimistic
// b = {2, 1, 1}, minimal budget 60, feasibility floor tau0 = 5.
sdf::PipelineSpec make_spec() {
  auto spec = sdf::PipelineBuilder("svc")
                  .simd_width(4)
                  .add_node("expand", 8.0, dist::make_deterministic(2))
                  .add_node("filter", 6.0, dist::make_deterministic(1))
                  .add_node("sink", 10.0, nullptr)
                  .build();
  EXPECT_TRUE(spec.ok());
  return spec.value();
}

ReplayConfig base_config() {
  ReplayConfig config;
  config.deadline = 600.0;
  config.initial_tau0 = 20.0;
  config.chunk_items = 128;
  config.chunks = 48;
  config.sessions = 4;
  config.seed = 7;
  return config;
}

// The offline oracle: a fresh solve at the plan's own operating point must
// reproduce the closed loop's steady-state schedule bit-for-bit.
void expect_plan_matches_cold_solve(const sdf::PipelineSpec& spec,
                                    const control::PlanPtr& plan,
                                    Cycles deadline) {
  const core::EnforcedWaitsStrategy oracle(
      spec, core::EnforcedWaitsConfig::optimistic(spec));
  const auto solved = oracle.solve(plan->planned_tau0, deadline);
  ASSERT_TRUE(solved.ok());
  const auto& planned = plan->schedule.firing_intervals;
  const auto& fresh = solved.value().firing_intervals;
  ASSERT_EQ(planned.size(), fresh.size());
  for (std::size_t i = 0; i < planned.size(); ++i) {
    EXPECT_EQ(planned[i], fresh[i]) << "node " << i;
  }
}

TEST(ReplayTest, RateStepConvergesToOracle) {
  const sdf::PipelineSpec spec = make_spec();
  // Gap 20 for ~8 chunks of virtual time, then a step to gap 10.
  auto rate = std::make_shared<arrivals::PiecewiseConstantRate>(
      std::vector<Cycles>{0.0, 20000.0}, std::vector<double>{0.05, 0.1});
  arrivals::VariableRateArrivals offered(rate);
  const ReplayConfig config = base_config();
  const ReplayReport report = replay_trace(spec, offered, config);

  ASSERT_EQ(report.chunks.size(), config.chunks);
  EXPECT_EQ(report.total_offered, config.chunks * config.chunk_items);

  // Both rates are feasible (gaps 20 and 10 vs floor 5): nothing is ever
  // shed and every session stays admitted.
  EXPECT_EQ(report.total_shed, 0u);
  EXPECT_EQ(report.total_admitted, report.total_offered);
  for (const ReplayChunk& chunk : report.chunks) {
    EXPECT_FALSE(chunk.shedding);
    EXPECT_EQ(chunk.admitted_sessions, config.sessions);
  }

  // The loop re-planned at least once and epochs never ran backwards.
  EXPECT_GE(report.controller.replans, 1u);
  for (std::size_t i = 1; i < report.chunks.size(); ++i) {
    EXPECT_GE(report.chunks[i].plan_epoch, report.chunks[i - 1].plan_epoch);
  }

  // Steady state: the plan's operating point sits within the hysteresis band
  // of the true post-step gap, and the schedule is exactly what the offline
  // oracle produces at that operating point.
  ASSERT_NE(report.final_plan, nullptr);
  EXPECT_NEAR(report.final_plan->planned_tau0, 10.0, 0.06 * 10.0);
  expect_plan_matches_cold_solve(spec, report.final_plan, config.deadline);

  // After convergence the plan serves the offered rate: no misses in the
  // last quarter of the replay.
  for (std::size_t i = report.chunks.size() - report.chunks.size() / 4;
       i < report.chunks.size(); ++i) {
    EXPECT_EQ(report.chunks[i].deadline_misses, 0u) << "chunk " << i;
    EXPECT_NEAR(report.chunks[i].mean_gap_offered, 10.0, 1e-9);
  }
}

TEST(ReplayTest, RateRampTracksAndConverges) {
  const sdf::PipelineSpec spec = make_spec();
  // Ramp from gap 20 (rate 0.05) to gap 8 (rate 0.125) over 40000 cycles of
  // virtual time, then hold.
  auto rate = std::make_shared<arrivals::LinearRampRate>(0.05, 0.125, 40000.0);
  arrivals::VariableRateArrivals offered(rate);
  ReplayConfig config = base_config();
  config.chunks = 64;
  const ReplayReport report = replay_trace(spec, offered, config);

  EXPECT_EQ(report.total_shed, 0u);
  EXPECT_EQ(report.total_misses, 0u);  // the ramp never outruns the floor
  // Multiple re-plans as the target walks down the ramp.
  EXPECT_GE(report.controller.replans, 2u);

  ASSERT_NE(report.final_plan, nullptr);
  EXPECT_NEAR(report.final_plan->planned_tau0, 8.0, 0.06 * 8.0);
  expect_plan_matches_cold_solve(spec, report.final_plan, config.deadline);

  const ReplayChunk& last = report.chunks.back();
  EXPECT_NEAR(last.mean_gap_offered, 8.0, 1e-9);
  EXPECT_EQ(last.deadline_misses, 0u);
}

TEST(ReplayTest, OverloadShedsOnlyWhileInfeasibleAndRecovers) {
  const sdf::PipelineSpec spec = make_spec();
  // Feasible (gap 20) -> overload (gap 2, rate 0.5 vs feasible 0.2) ->
  // recovery (gap 20 again).
  auto rate = std::make_shared<arrivals::PiecewiseConstantRate>(
      std::vector<Cycles>{0.0, 10000.0, 20000.0},
      std::vector<double>{0.05, 0.5, 0.05});
  arrivals::VariableRateArrivals offered(rate);
  ReplayConfig config = base_config();
  config.chunks = 64;
  const ReplayReport report = replay_trace(spec, offered, config);

  // Shedding happened, and only in chunks whose offered rate was infeasible
  // (mean gap below the floor of 5, modulo the estimator's lag by one chunk
  // on either side of each step).
  EXPECT_GT(report.total_shed, 0u);
  EXPECT_GT(report.controller.shed_ticks, 0u);
  std::size_t shed_chunks = 0;
  for (std::size_t i = 0; i < report.chunks.size(); ++i) {
    const ReplayChunk& chunk = report.chunks[i];
    if (chunk.shed > 0) {
      ++shed_chunks;
      // A shedding cut of 1-in-4 sessions: the admitted stream (mean gap 8)
      // fits under the floor-clamped plan, so shed chunks still meet the
      // deadline.
      EXPECT_EQ(chunk.admitted_sessions, 1u) << "chunk " << i;
      EXPECT_EQ(chunk.shed, chunk.offered - chunk.admitted);
    }
  }
  EXPECT_GT(shed_chunks, 4u);

  // While clamped to the floor the plan operates at ~floor_tau0.
  bool saw_floor_plan = false;
  for (const ReplayChunk& chunk : report.chunks) {
    if (chunk.shedding) {
      EXPECT_NEAR(chunk.planned_tau0, 5.0, 0.01);
      saw_floor_plan = true;
    }
  }
  EXPECT_TRUE(saw_floor_plan);

  // Recovery: the tail of the replay is back to gap 20, fully admitted, no
  // shedding, no misses.
  ASSERT_NE(report.final_plan, nullptr);
  EXPECT_FALSE(report.final_plan->shedding);
  EXPECT_NEAR(report.final_plan->planned_tau0, 20.0, 0.06 * 20.0);
  expect_plan_matches_cold_solve(spec, report.final_plan, config.deadline);
  for (std::size_t i = report.chunks.size() - 6; i < report.chunks.size();
       ++i) {
    EXPECT_FALSE(report.chunks[i].shedding) << "chunk " << i;
    EXPECT_EQ(report.chunks[i].shed, 0u) << "chunk " << i;
    EXPECT_EQ(report.chunks[i].admitted_sessions, config.sessions);
    EXPECT_EQ(report.chunks[i].deadline_misses, 0u) << "chunk " << i;
  }
}

TEST(ReplayTest, StochasticReplayIsDeterministic) {
  const sdf::PipelineSpec spec = make_spec();
  const ReplayConfig config = base_config();

  auto rate = std::make_shared<arrivals::SinusoidalRate>(0.08, 0.03, 30000.0);
  arrivals::ThinningArrivals first(rate);
  const ReplayReport a = replay_trace(spec, first, config);
  arrivals::ThinningArrivals second(rate);
  const ReplayReport b = replay_trace(spec, second, config);

  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    ASSERT_DOUBLE_EQ(a.chunks[i].mean_gap_offered, b.chunks[i].mean_gap_offered);
    ASSERT_DOUBLE_EQ(a.chunks[i].tau0_estimate, b.chunks[i].tau0_estimate);
    ASSERT_DOUBLE_EQ(a.chunks[i].planned_tau0, b.chunks[i].planned_tau0);
    ASSERT_EQ(a.chunks[i].plan_epoch, b.chunks[i].plan_epoch);
    ASSERT_EQ(a.chunks[i].deadline_misses, b.chunks[i].deadline_misses);
    ASSERT_DOUBLE_EQ(a.chunks[i].worst_latency, b.chunks[i].worst_latency);
  }
  ASSERT_EQ(a.final_plan->epoch, b.final_plan->epoch);
  ASSERT_EQ(a.final_plan->schedule.firing_intervals,
            b.final_plan->schedule.firing_intervals);
}

TEST(ReplayTest, MalformedConfigThrows) {
  const sdf::PipelineSpec spec = make_spec();
  auto rate = std::make_shared<arrivals::PiecewiseConstantRate>(
      std::vector<Cycles>{0.0}, std::vector<double>{0.05});
  arrivals::VariableRateArrivals offered(rate);

  ReplayConfig no_chunks = base_config();
  no_chunks.chunks = 0;
  EXPECT_THROW(replay_trace(spec, offered, no_chunks), std::logic_error);

  ReplayConfig no_items = base_config();
  no_items.chunk_items = 0;
  EXPECT_THROW(replay_trace(spec, offered, no_items), std::logic_error);

  ReplayConfig no_sessions = base_config();
  no_sessions.sessions = 0;
  EXPECT_THROW(replay_trace(spec, offered, no_sessions), std::logic_error);

  // A deadline below the minimal budget is a configuration error surfaced
  // at controller construction.
  ReplayConfig bad_deadline = base_config();
  bad_deadline.deadline = 50.0;
  EXPECT_THROW(replay_trace(spec, offered, bad_deadline), std::logic_error);
}

}  // namespace
}  // namespace ripple::service
