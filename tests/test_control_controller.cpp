// Controller: the estimate -> re-plan -> admission loop. Covers steady-state
// hysteresis, drift-triggered re-planning, proportional admission cuts under
// overload, the observed-slack force trigger, the arrival feed's grouping of
// equal stamps, and the framed-Poisson behaviour of the estimate and the
// noise band (ROADMAP item 1).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "control/controller.hpp"
#include "dist/gain.hpp"
#include "dist/rng.hpp"
#include "sdf/pipeline.hpp"

namespace ripple::control {
namespace {

// Same pipeline as test_control_replanner: L = {20, 10, 10}, b = {2, 1, 1},
// minimal budget 60, feasibility floor tau0 = 5 at any deadline >= 60.
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

Controller make_controller(ControllerConfig config = {}) {
  return Controller(make_spec(), core::EnforcedWaitsConfig::optimistic(make_spec()),
                    600.0, 20.0, config);
}

TEST(ControllerTest, PublishesInitialPlanOnConstruction) {
  Controller controller = make_controller();
  const PlanPtr plan = controller.plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->epoch, 1u);
  EXPECT_DOUBLE_EQ(plan->planned_tau0, 20.0);
  EXPECT_FALSE(plan->shedding);
  EXPECT_EQ(controller.stats().ticks, 0u);
  // Feasible estimate: everyone is admitted.
  EXPECT_EQ(controller.admitted_sessions(4), 4u);
  EXPECT_EQ(controller.admitted_sessions(0), 0u);
}

TEST(ControllerTest, SteadyStateTicksKeepThePlan) {
  Controller controller = make_controller();
  for (int i = 0; i < 2000; ++i) controller.observe_group(20.0, 1);
  for (int i = 0; i < 10; ++i) {
    const ControlDecision decision = controller.tick();
    EXPECT_EQ(decision.outcome, ReplanOutcome::kKept);
    EXPECT_FALSE(decision.shedding);
    EXPECT_EQ(decision.plan->epoch, 1u);
  }
  const ControllerStats stats = controller.stats();
  EXPECT_EQ(stats.ticks, 10u);
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.shed_ticks, 0u);
}

TEST(ControllerTest, DriftedEstimateReplans) {
  Controller controller = make_controller();
  // The offered rate halves: gaps double from the 20.0 prior to 40.0.
  for (int i = 0; i < 4000; ++i) controller.observe_group(40.0, 1);
  const ControlDecision decision = controller.tick();
  EXPECT_EQ(decision.outcome, ReplanOutcome::kReplanned);
  EXPECT_NEAR(decision.tau0_estimate, 40.0, 1e-6);
  EXPECT_EQ(decision.plan->epoch, 2u);
  EXPECT_NEAR(decision.plan->planned_tau0, 40.0, 1e-6);
  EXPECT_EQ(controller.stats().replans, 1u);
}

TEST(ControllerTest, OverloadShedsProportionally) {
  Controller controller = make_controller();
  // Offered gaps of 2.0 against a floor of 5.0: only 2/5 of the offered
  // stream fits. With symmetric sessions that is floor(S * 0.4).
  for (int i = 0; i < 4000; ++i) controller.observe_group(2.0, 1);
  const ControlDecision decision = controller.tick();
  EXPECT_EQ(decision.outcome, ReplanOutcome::kReplanned);
  EXPECT_TRUE(decision.shedding);
  EXPECT_TRUE(decision.plan->shedding);
  EXPECT_EQ(controller.admitted_sessions(10), 4u);
  EXPECT_EQ(controller.admitted_sessions(4), 1u);
  EXPECT_EQ(controller.admitted_sessions(1), 0u);
  EXPECT_EQ(controller.stats().shed_ticks, 1u);

  // Load returns to feasible: the next tick flips back and admits everyone.
  for (int i = 0; i < 8000; ++i) controller.observe_group(20.0, 1);
  const ControlDecision recovered = controller.tick();
  EXPECT_EQ(recovered.outcome, ReplanOutcome::kReplanned);
  EXPECT_FALSE(recovered.shedding);
  EXPECT_EQ(controller.admitted_sessions(10), 10u);
}

TEST(ControllerTest, SlackTriggerForcesReplanPastHysteresis) {
  ControllerConfig config;
  config.replanner.cooldown_ticks = 100;  // hysteresis would block everything
  Controller controller = make_controller(config);
  for (int i = 0; i < 2000; ++i) controller.observe_group(20.0, 1);

  // No drift, no slack pressure: kept.
  EXPECT_EQ(controller.tick().outcome, ReplanOutcome::kKept);

  // A batch grazes the deadline (> 0.9 * 600): the next tick is forced.
  controller.observe_worst_latency(580.0);
  const ControlDecision forced = controller.tick();
  EXPECT_TRUE(forced.slack_forced);
  EXPECT_EQ(forced.outcome, ReplanOutcome::kReplanned);
  EXPECT_EQ(controller.stats().slack_forced, 1u);

  // The latency observation is consumed by the tick, not sticky.
  const ControlDecision after = controller.tick();
  EXPECT_FALSE(after.slack_forced);
  EXPECT_EQ(after.outcome, ReplanOutcome::kKept);
}

TEST(ControllerTest, SlackTriggerCanBeDisabled) {
  ControllerConfig config;
  config.slack_trigger = 0.0;
  Controller controller = make_controller(config);
  controller.observe_worst_latency(599.0);
  const ControlDecision decision = controller.tick();
  EXPECT_FALSE(decision.slack_forced);
  EXPECT_EQ(decision.outcome, ReplanOutcome::kKept);
}

TEST(ControllerTest, ImpossibleDeadlinePropagates) {
  EXPECT_THROW(Controller(make_spec(),
                          core::EnforcedWaitsConfig::optimistic(make_spec()),
                          50.0, 20.0, {}),
               std::logic_error);
}

TEST(ControllerTest, ObserveArrivalsFeedsOneGroupPerStamp) {
  Controller controller = make_controller();
  const Cycles last =
      controller.observe_arrivals({10.0, 10.0, 10.0, 25.0, 25.0, 40.0}, 0.0);
  EXPECT_EQ(last, 40.0);
  // A stamp behind the carry (a racing producer) joins with zero span and
  // leaves the carry where it was.
  EXPECT_EQ(controller.observe_arrivals({30.0}, last), 40.0);
  EXPECT_EQ(controller.observe_arrivals({}, last), 40.0);

  const RateEstimatorCheckpoint state = controller.estimator().checkpoint();
  const std::vector<ArrivalGroup> expected = {
      {10.0, 3}, {15.0, 2}, {15.0, 1}, {0.0, 1}};
  EXPECT_EQ(state.groups, 4u);
  EXPECT_EQ(state.window, expected);
}

/// Poisson frames of `frame` items at mean inter-arrival `tau0` per item:
/// the frame gap is exponential with mean frame * tau0.
class FramedPoisson {
 public:
  FramedPoisson(std::uint64_t seed, std::uint64_t frame)
      : rng_(dist::derive_seed({seed, 0xF4A3E})), frame_(frame) {}

  /// One frame's stamps (all equal) after advancing the clock.
  const std::vector<Cycles>& next(Cycles tau0) {
    clock_ += -std::log1p(-rng_.uniform01()) * tau0 * static_cast<double>(frame_);
    stamps_.assign(frame_, clock_);
    return stamps_;
  }

 private:
  dist::Xoshiro256 rng_;
  std::uint64_t frame_;
  Cycles clock_ = 0.0;
  std::vector<Cycles> stamps_;
};

// The service's deadline scaled to a true tau0 of 1000: every rate here is
// feasible, so only drift and noise decide whether a tick replans.
Controller make_framed_controller() {
  return Controller(make_spec(), core::EnforcedWaitsConfig::optimistic(make_spec()),
                    600.0, 1000.0, {});
}

TEST(ControllerTest, FramedPoissonEstimateIsUnbiased) {
  Controller controller = make_framed_controller();
  FramedPoisson frames(11, 64);
  Cycles last = 0.0;
  double sum = 0.0;
  int measured = 0;
  for (int frame = 0; frame < 4000; ++frame) {
    last = controller.observe_arrivals(frames.next(1000.0), last);
    if (frame >= 256) {  // a full window of frames
      sum += controller.estimator().tau0();
      ++measured;
    }
  }
  EXPECT_NEAR(sum / measured, 1000.0, 0.05 * 1000.0);
}

TEST(ControllerTest, SteadyFramedLoadRarelyReplans) {
  Controller controller = make_framed_controller();
  FramedPoisson frames(12, 64);
  Cycles last = 0.0;
  constexpr int kTicks = 20000;
  for (int tick = 0; tick < kTicks; ++tick) {
    last = controller.observe_arrivals(frames.next(1000.0), last);
    controller.tick();
  }
  EXPECT_EQ(controller.stats().ticks, static_cast<std::uint64_t>(kTicks));
  EXPECT_LE(controller.stats().replans, kTicks / 100u)
      << "the noise band should absorb Poisson frame jitter";
}

TEST(ControllerTest, RateStepReplansWithinTheWindow) {
  Controller controller = make_framed_controller();
  FramedPoisson frames(13, 64);
  Cycles last = 0.0;
  for (int tick = 0; tick < 2000; ++tick) {
    last = controller.observe_arrivals(frames.next(1000.0), last);
    controller.tick();
  }
  const std::uint64_t before = controller.stats().replans;
  const std::size_t window = RateEstimatorConfig{}.window;
  std::size_t ticks_to_replan = 0;
  for (std::size_t tick = 1; tick <= window; ++tick) {
    last = controller.observe_arrivals(frames.next(500.0), last);
    controller.tick();
    if (controller.stats().replans > before) {
      ticks_to_replan = tick;
      break;
    }
  }
  EXPECT_GT(ticks_to_replan, 0u) << "no replan within " << window << " ticks";
  EXPECT_LT(controller.plan()->planned_tau0, 0.9 * 1000.0);
}

}  // namespace
}  // namespace ripple::control
