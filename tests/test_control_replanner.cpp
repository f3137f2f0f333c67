// Replanner + PlanStore: initial publish, drift hysteresis, cooldown,
// feasibility flips, and the atomic hot-swap.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "control/plan_store.hpp"
#include "control/replanner.hpp"
#include "core/enforced_waits.hpp"
#include "dist/gain.hpp"
#include "sdf/pipeline.hpp"

namespace ripple::control {
namespace {

// expand(t=8, g=2) -> filter(t=6, g=1) -> sink(t=10), v = 4.
// Minimal chain-feasible intervals L = {20, 10, 10}; optimistic b = {2, 1, 1}
// gives minimal budget 60 and feasibility floor tau0 >= L0 / v = 5.
sdf::PipelineSpec make_spec() {
  auto spec = sdf::PipelineBuilder("ctl")
                  .simd_width(4)
                  .add_node("expand", 8.0, dist::make_deterministic(2))
                  .add_node("filter", 6.0, dist::make_deterministic(1))
                  .add_node("sink", 10.0, nullptr)
                  .build();
  EXPECT_TRUE(spec.ok());
  return spec.value();
}

core::EnforcedWaitsConfig optimistic() {
  return core::EnforcedWaitsConfig::optimistic(make_spec());
}

TEST(ReplannerTest, ConstructorPublishesInitialPlan) {
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, {});
  const PlanPtr plan = replanner.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->epoch, 1u);
  EXPECT_DOUBLE_EQ(plan->planned_tau0, 20.0);
  EXPECT_DOUBLE_EQ(plan->deadline, 600.0);
  EXPECT_FALSE(plan->shedding);
  EXPECT_EQ(plan->schedule.firing_intervals.size(), 3u);
  EXPECT_NEAR(replanner.floor_tau0(), 5.0, 1e-9);
}

TEST(ReplannerTest, ImpossibleDeadlineThrows) {
  // Deadline below the minimal budget (60): no rate is ever feasible.
  EXPECT_THROW(Replanner(make_spec(), optimistic(), 50.0, 20.0, {}),
               std::logic_error);
}

TEST(ReplannerTest, SmallDriftKeepsPlan) {
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, {});
  const ReplanDecision decision = replanner.consider(20.5);  // 2.5% < 5%
  EXPECT_EQ(decision.outcome, ReplanOutcome::kKept);
  EXPECT_EQ(decision.plan->epoch, 1u);
  EXPECT_EQ(replanner.replans(), 1u);  // just the initial solve
}

TEST(ReplannerTest, DriftPastThresholdReplans) {
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, {});
  const ReplanDecision decision = replanner.consider(25.0);  // 25% drift
  EXPECT_EQ(decision.outcome, ReplanOutcome::kReplanned);
  EXPECT_EQ(decision.plan->epoch, 2u);
  EXPECT_DOUBLE_EQ(decision.plan->planned_tau0, 25.0);
  EXPECT_FALSE(decision.shedding);
}

TEST(ReplannerTest, CooldownDefersDriftReplans) {
  ReplannerConfig config;
  config.cooldown_ticks = 3;
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, config);
  EXPECT_EQ(replanner.consider(30.0).outcome, ReplanOutcome::kKept);
  EXPECT_EQ(replanner.consider(30.0).outcome, ReplanOutcome::kKept);
  const ReplanDecision third = replanner.consider(30.0);
  EXPECT_EQ(third.outcome, ReplanOutcome::kReplanned);
  EXPECT_EQ(third.plan->epoch, 2u);
}

TEST(ReplannerTest, ForceBypassesCooldownAndDrift) {
  ReplannerConfig config;
  config.cooldown_ticks = 100;
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, config);
  // No drift at all, but forced (the slack trigger path).
  const ReplanDecision decision = replanner.consider(20.0, /*force=*/true);
  EXPECT_EQ(decision.outcome, ReplanOutcome::kReplanned);
  EXPECT_EQ(decision.plan->epoch, 2u);
}

TEST(ReplannerTest, FeasibilityFlipBypassesCooldown) {
  ReplannerConfig config;
  config.cooldown_ticks = 100;
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, config);

  // Offered rate far beyond the floor: clamp + shed, despite the cooldown.
  const ReplanDecision overload = replanner.consider(1.0);
  EXPECT_EQ(overload.outcome, ReplanOutcome::kReplanned);
  EXPECT_TRUE(overload.shedding);
  EXPECT_TRUE(overload.plan->shedding);
  EXPECT_GE(overload.target_tau0, replanner.floor_tau0());
  EXPECT_NEAR(overload.target_tau0, replanner.floor_tau0(), 1e-3);

  // Load drops again: flip back out of shedding, also bypassing cooldown.
  const ReplanDecision recovered = replanner.consider(20.0);
  EXPECT_EQ(recovered.outcome, ReplanOutcome::kReplanned);
  EXPECT_FALSE(recovered.shedding);
  EXPECT_FALSE(recovered.plan->shedding);
  EXPECT_DOUBLE_EQ(recovered.plan->planned_tau0, 20.0);
}

TEST(ReplannerTest, HeadroomSolvesBelowTheEstimate) {
  ReplannerConfig config;
  config.headroom = 0.8;
  Replanner replanner(make_spec(), optimistic(), 600.0, 20.0, config);
  EXPECT_DOUBLE_EQ(replanner.plan()->planned_tau0, 16.0);  // 0.8 * 20
  const ReplanDecision decision = replanner.consider(30.0);
  EXPECT_EQ(decision.outcome, ReplanOutcome::kReplanned);
  EXPECT_DOUBLE_EQ(decision.plan->planned_tau0, 24.0);  // 0.8 * 30
}

TEST(ReplannerTest, RejectsBadConfig) {
  ReplannerConfig bad_headroom;
  bad_headroom.headroom = 1.5;
  EXPECT_THROW(Replanner(make_spec(), optimistic(), 600.0, 20.0, bad_headroom),
               std::logic_error);
  EXPECT_THROW(Replanner(make_spec(), optimistic(), 600.0, -1.0, {}),
               std::logic_error);
  EXPECT_THROW(Replanner(make_spec(), optimistic(), 0.0, 20.0, {}),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// PlanStore
// ---------------------------------------------------------------------------

TEST(PlanStoreTest, EpochsIncreaseMonotonically) {
  PlanStore store;
  EXPECT_EQ(store.load(), nullptr);
  EXPECT_EQ(store.epoch(), 0u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    core::EnforcedWaitsSchedule schedule;
    schedule.firing_intervals = {static_cast<Cycles>(i)};
    const PlanPtr plan = store.publish(std::move(schedule), 10.0, 100.0, false);
    EXPECT_EQ(plan->epoch, i);
    EXPECT_EQ(store.epoch(), i);
    EXPECT_EQ(store.load(), plan);
  }
}

TEST(PlanStoreTest, ReadersAlwaysSeeACoherentPlan) {
  PlanStore store;
  {
    core::EnforcedWaitsSchedule schedule;
    schedule.firing_intervals = {1.0};
    store.publish(std::move(schedule), 1.0, 1.0, false);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const PlanPtr plan = store.load();
        ASSERT_NE(plan, nullptr);
        // The plan a reader holds is immutable and internally consistent:
        // its epoch matches the tau0 the writer stamped with it.
        ASSERT_DOUBLE_EQ(plan->planned_tau0,
                         static_cast<double>(plan->epoch));
        ASSERT_GE(plan->epoch, last_epoch);  // epochs never run backwards
        last_epoch = plan->epoch;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t i = 2; i <= 2000; ++i) {
    core::EnforcedWaitsSchedule schedule;
    schedule.firing_intervals = {static_cast<Cycles>(i)};
    store.publish(std::move(schedule), static_cast<double>(i), 1.0, false);
  }
  // On a loaded single-core host the readers may not have been scheduled at
  // all yet; hold the final plan until at least one read lands.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace ripple::control
