#include "control/replanner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::control {

Replanner::Replanner(sdf::PipelineSpec pipeline,
                     core::EnforcedWaitsConfig config, Cycles deadline,
                     Cycles initial_tau0, ReplannerConfig replan)
    : strategy_(std::move(pipeline), std::move(config)),
      deadline_(deadline),
      config_(replan) {
  RIPPLE_REQUIRE(deadline_ > 0.0, "deadline must be positive");
  RIPPLE_REQUIRE(initial_tau0 > 0.0, "initial tau0 must be positive");
  RIPPLE_REQUIRE(config_.drift_threshold > 0.0,
                 "drift threshold must be positive");
  RIPPLE_REQUIRE(config_.headroom > 0.0 && config_.headroom <= 1.0,
                 "headroom must be in (0, 1]");
  floor_tau0_ = strategy_.min_feasible_tau0(deadline_);
  if (floor_tau0_ == kUnboundedCycles) {
    throw std::logic_error(
        "deadline below the minimal enforced-waits budget: no arrival rate "
        "is ever feasible");
  }
  bool shedding = false;
  const Cycles target = clamp_target(initial_tau0, shedding);
  if (solve_and_publish(target, shedding) != ReplanOutcome::kReplanned) {
    throw std::logic_error("initial enforced-waits solve failed");
  }
}

Cycles Replanner::clamp_target(Cycles tau0_hat, bool& shedding) const {
  const Cycles target = config_.headroom * tau0_hat;
  const Cycles floor = floor_tau0_ * (1.0 + config_.boundary_margin);
  if (target < floor) {
    shedding = true;
    return floor;
  }
  shedding = false;
  return target;
}

ReplanOutcome Replanner::solve_and_publish(Cycles target, bool shedding) {
#if RIPPLE_OBS
  obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
  const double t0 = obs::TraceSession::global().host_now_us();
  if (trace.active()) {
    trace.begin(obs::Domain::kHost, trace.track(), "control.replan", t0);
  }
#endif
  auto solved = strategy_.solve(target, deadline_);
#if RIPPLE_OBS
  if (trace.active()) {
    const double t1 = obs::TraceSession::global().host_now_us();
    trace.end(obs::Domain::kHost, trace.track(), "control.replan", t1);
    obs::Registry::global().histogram("control.replan_wall_us")->record(t1 - t0);
  }
#endif
  if (!solved.ok()) {
    ++solve_failures_;
    return ReplanOutcome::kSolveFailed;
  }
  store_.publish(std::move(solved.value()), target, deadline_, shedding);
  ++replans_;
  last_replan_tick_ = ticks_;
#if RIPPLE_OBS
  if (trace.active()) {
    obs::Registry::global().counter("control.replans")->increment();
  }
#endif
  return ReplanOutcome::kReplanned;
}

ReplannerCheckpoint Replanner::checkpoint() const {
  ReplannerCheckpoint state;
  state.ticks = ticks_;
  state.last_replan_tick = last_replan_tick_;
  state.replans = replans_;
  state.solve_failures = solve_failures_;
  const PlanPtr plan = store_.load();
  state.plan_epoch = plan->epoch;
  state.planned_tau0 = plan->planned_tau0;
  state.plan_deadline = plan->deadline;
  state.shedding = plan->shedding;
  state.waits = plan->schedule.waits;
  state.firing_intervals = plan->schedule.firing_intervals;
  state.predicted_active_fraction = plan->schedule.predicted_active_fraction;
  state.deadline_budget_used = plan->schedule.deadline_budget_used;
  return state;
}

void Replanner::restore(const ReplannerCheckpoint& state) {
  RIPPLE_REQUIRE(state.plan_epoch > 0, "checkpoint carries no published plan");
  RIPPLE_REQUIRE(state.firing_intervals.size() ==
                     strategy_.pipeline().size(),
                 "checkpoint plan arity does not match this pipeline");
  ticks_ = state.ticks;
  last_replan_tick_ = state.last_replan_tick;
  replans_ = state.replans;
  solve_failures_ = state.solve_failures;
  auto plan = std::make_shared<ActivePlan>();
  plan->epoch = state.plan_epoch;
  plan->planned_tau0 = state.planned_tau0;
  plan->deadline = state.plan_deadline;
  plan->shedding = state.shedding;
  plan->schedule.waits = state.waits;
  plan->schedule.firing_intervals = state.firing_intervals;
  plan->schedule.predicted_active_fraction = state.predicted_active_fraction;
  plan->schedule.deadline_budget_used = state.deadline_budget_used;
  store_.restore(std::move(plan));
}

ReplanDecision Replanner::consider(Cycles tau0_hat, bool force,
                                   double relative_se) {
  ++ticks_;
  ReplanDecision decision;
  decision.target_tau0 = clamp_target(tau0_hat, decision.shedding);

  const PlanPtr current = store_.load();
  const bool feasibility_flip = current->shedding != decision.shedding;
  const double drift =
      std::abs(decision.target_tau0 - current->planned_tau0) /
      current->planned_tau0;
  const bool drifted =
      drift > std::max(config_.drift_threshold, kNoiseBandSigmas * relative_se);
  const bool cooled =
      ticks_ - last_replan_tick_ >= config_.cooldown_ticks;

  if ((force || feasibility_flip || (drifted && cooled))) {
    decision.outcome = solve_and_publish(decision.target_tau0,
                                         decision.shedding);
  } else {
    decision.outcome = ReplanOutcome::kKept;
  }
  decision.plan = store_.load();
  return decision;
}

}  // namespace ripple::control
