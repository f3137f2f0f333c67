#include "control/controller.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if RIPPLE_OBS
#include "obs/obs.hpp"
#endif

namespace ripple::control {

Controller::Controller(sdf::PipelineSpec pipeline,
                       core::EnforcedWaitsConfig config, Cycles deadline,
                       Cycles initial_tau0, ControllerConfig controller)
    : config_(controller),
      estimator_(initial_tau0, controller.estimator),
      replanner_(std::move(pipeline), std::move(config), deadline,
                 initial_tau0, controller.replanner) {}

Cycles Controller::observe_arrivals(const std::vector<Cycles>& sorted_stamps,
                                    Cycles last_stamp) {
  std::size_t i = 0;
  while (i < sorted_stamps.size()) {
    const Cycles stamp = sorted_stamps[i];
    std::size_t end = i + 1;
    while (end < sorted_stamps.size() && sorted_stamps[end] == stamp) ++end;
    estimator_.observe_group(stamp - last_stamp, end - i);
    last_stamp = std::max(last_stamp, stamp);
    i = end;
  }
  return last_stamp;
}

void Controller::observe_worst_latency(Cycles latency) {
  worst_latency_ = std::max(worst_latency_, latency);
}

ControlDecision Controller::tick() {
  const bool slack_forced =
      config_.slack_trigger > 0.0 &&
      worst_latency_ > config_.slack_trigger * replanner_.deadline();
  worst_latency_ = 0.0;

  const RateEstimate estimate = estimator_.estimate();
  const Cycles tau0_hat = estimate.tau0;
  ReplanDecision replan =
      replanner_.consider(tau0_hat, slack_forced, estimate.relative_se);

  ++stats_.ticks;
  if (replan.outcome == ReplanOutcome::kReplanned) ++stats_.replans;
  if (replan.outcome == ReplanOutcome::kSolveFailed) ++stats_.solve_failures;
  if (replan.shedding) ++stats_.shed_ticks;
  if (slack_forced && replan.outcome == ReplanOutcome::kReplanned) {
    ++stats_.slack_forced;
  }

#if RIPPLE_OBS
  {
    obs::TraceWriter trace = obs::TraceWriter::for_current_thread();
    if (trace.active()) {
      trace.counter(obs::Domain::kHost, trace.track(), "control.tau0_est",
                    obs::TraceSession::global().host_now_us(), tau0_hat);
    }
  }
#endif

  ControlDecision decision;
  decision.outcome = replan.outcome;
  decision.shedding = replan.shedding;
  decision.slack_forced = slack_forced;
  decision.tau0_estimate = tau0_hat;
  decision.target_tau0 = replan.target_tau0;
  decision.plan = std::move(replan.plan);
  return decision;
}

ControllerCheckpoint Controller::checkpoint() const {
  ControllerCheckpoint state;
  state.estimator = estimator_.checkpoint();
  state.replanner = replanner_.checkpoint();
  state.worst_latency = worst_latency_;
  state.stats = stats_;
  return state;
}

void Controller::restore(const ControllerCheckpoint& state) {
  estimator_.restore(state.estimator);
  replanner_.restore(state.replanner);
  worst_latency_ = state.worst_latency;
  stats_ = state.stats;
}

std::size_t Controller::admitted_sessions(std::size_t open_sessions) const {
  if (open_sessions == 0) return 0;
  const Cycles target =
      config_.replanner.headroom * estimator_.tau0();
  const Cycles floor = replanner_.floor_tau0();
  if (target >= floor) return open_sessions;
  // Offered rate 1/target exceeds the feasible 1/floor: admit the largest
  // session count whose proportional share of the offered rate still fits.
  const double fraction = target / floor;
  const auto admitted = static_cast<std::size_t>(
      std::floor(static_cast<double>(open_sessions) * fraction));
  return std::min(admitted, open_sessions);
}

}  // namespace ripple::control
