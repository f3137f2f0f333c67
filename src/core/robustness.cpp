#include "core/robustness.hpp"

#include "core/waterfill.hpp"
#include "util/assert.hpp"

namespace ripple::core {

util::Result<ScheduleSensitivity> analyze_sensitivity(
    const EnforcedWaitsStrategy& strategy, Cycles tau0, Cycles deadline,
    double active_tolerance) {
  using R = util::Result<ScheduleSensitivity>;

  auto solved = strategy.solve(tau0, deadline);
  if (!solved.ok()) {
    return R::failure(solved.error().code, solved.error().message);
  }
  const EnforcedWaitsSchedule& schedule = solved.value();
  const sdf::PipelineSpec& pipeline = strategy.pipeline();
  const std::vector<double>& b = strategy.config().b;
  const std::size_t n = pipeline.size();
  const auto& x = schedule.firing_intervals;

  ScheduleSensitivity sensitivity;

  // Per-constraint slacks at the optimum.
  const double rate_cap = static_cast<double>(pipeline.simd_width()) * tau0;
  auto add_slack = [&](std::string label, double slack, double scale) {
    ConstraintSlack entry;
    entry.label = std::move(label);
    entry.slack = slack;
    entry.active = slack <= active_tolerance * (1.0 + scale);
    sensitivity.slacks.push_back(std::move(entry));
  };
  add_slack("rate", rate_cap - x[0], rate_cap);
  add_slack("deadline", deadline - schedule.deadline_budget_used, deadline);
  for (std::size_t i = 1; i < n; ++i) {
    const double g = pipeline.mean_gain(i - 1);
    if (g <= 0.0) continue;
    add_slack("chain[" + std::to_string(i) + "]", x[i - 1] - g * x[i], x[i - 1]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    add_slack("wait[" + std::to_string(i) + "]",
              x[i] - pipeline.service_time(i), x[i]);
  }

  // Deadline multiplier: the pooled solve's budget multiplier is exact for
  // the full problem. The strategy objective carries a 1/N factor relative
  // to sum t_i/x_i.
  if (auto pooled = waterfill_solve_pooled(pipeline, b, tau0, deadline);
      pooled.ok()) {
    sensitivity.deadline_multiplier =
        pooled.value().lambda / static_cast<double>(n);
  }

  // Bottleneck: the active structural constraint family, preferring the
  // deadline (it is active at every optimum with finite D), unless the rate
  // cap or a chain coupling also binds — those cap the benefit of more D.
  sensitivity.bottleneck = "deadline";
  for (const ConstraintSlack& slack : sensitivity.slacks) {
    if (!slack.active) continue;
    if (slack.label == "rate") {
      sensitivity.bottleneck = "rate";
      break;
    }
    if (slack.label.rfind("chain", 0) == 0) sensitivity.bottleneck = "chain";
  }
  return sensitivity;
}

}  // namespace ripple::core
