#include "core/enforced_waits.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/waterfill.hpp"
#include "sdf/analysis.hpp"
#include "util/assert.hpp"
#include "util/string_utils.hpp"

namespace ripple::core {

namespace {

std::string scientific(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3e", value);
  return buffer;
}

}  // namespace

EnforcedWaitsConfig EnforcedWaitsConfig::optimistic(
    const sdf::PipelineSpec& pipeline) {
  EnforcedWaitsConfig config;
  config.b.reserve(pipeline.size());
  for (NodeIndex i = 0; i < pipeline.size(); ++i) {
    config.b.push_back(std::max(1.0, std::ceil(pipeline.mean_gain(i))));
  }
  return config;
}

EnforcedWaitsStrategy::EnforcedWaitsStrategy(sdf::PipelineSpec pipeline,
                                             EnforcedWaitsConfig config)
    : pipeline_(std::move(pipeline)), config_(std::move(config)) {
  RIPPLE_REQUIRE(config_.b.size() == pipeline_.size(),
                 "one b multiplier per node required");
  for (double b : config_.b) {
    RIPPLE_REQUIRE(b >= 1.0, "b multipliers must be at least 1");
  }
  // Both quantities depend only on the pipeline and b, not on (tau0, D);
  // caching them turns every per-cell feasibility check into two compares.
  minimal_intervals_ = sdf::minimal_firing_intervals(pipeline_);
  minimal_budget_ = sdf::minimal_deadline_budget(pipeline_, config_.b);
}

bool EnforcedWaitsStrategy::is_feasible(Cycles tau0, Cycles deadline) const {
  if (minimal_intervals_[0] > static_cast<double>(pipeline_.simd_width()) * tau0) {
    return false;
  }
  return minimal_budget_ <= deadline;
}

Cycles EnforcedWaitsStrategy::min_feasible_deadline(Cycles tau0) const {
  if (minimal_intervals_[0] > static_cast<double>(pipeline_.simd_width()) * tau0) {
    return kUnboundedCycles;
  }
  return minimal_budget_;
}

Cycles EnforcedWaitsStrategy::min_feasible_tau0(Cycles deadline) const {
  // Feasibility is exactly two compares (see is_feasible): the deadline
  // bound does not involve tau0, and the rate bound is the sharp threshold
  // L_0 <= v * tau0 — so the frontier is closed-form, no search needed.
  if (minimal_budget_ > deadline) return kUnboundedCycles;
  return minimal_intervals_[0] / static_cast<double>(pipeline_.simd_width());
}

double EnforcedWaitsStrategy::active_fraction(
    const std::vector<Cycles>& firing_intervals) const {
  RIPPLE_REQUIRE(firing_intervals.size() == pipeline_.size(),
                 "one interval per node required");
  double sum = 0.0;
  for (NodeIndex i = 0; i < pipeline_.size(); ++i) {
    sum += pipeline_.service_time(i) / firing_intervals[i];
  }
  return sum / static_cast<double>(pipeline_.size());
}

opt::ConvexProblem EnforcedWaitsStrategy::build_problem(Cycles tau0,
                                                        Cycles deadline) const {
  const std::size_t n = pipeline_.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<Cycles> service(n);
  for (NodeIndex i = 0; i < n; ++i) service[i] = pipeline_.service_time(i);

  opt::ConvexProblem problem;
  problem.objective = [service, inv_n](const linalg::Vector& x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) sum += service[i] / x[i];
    return sum * inv_n;
  };
  problem.gradient = [service, inv_n](const linalg::Vector& x) {
    linalg::Vector g(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      g[i] = -inv_n * service[i] / (x[i] * x[i]);
    }
    return g;
  };
  problem.hessian = [service, inv_n](const linalg::Vector& x) {
    linalg::Matrix h(x.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      h(i, i) = 2.0 * inv_n * service[i] / (x[i] * x[i] * x[i]);
    }
    return h;
  };

  // Bounds: x_i >= t_i always; x_0 additionally capped by the arrival-rate
  // constraint x_0 <= v * tau0.
  problem.lower_bounds = linalg::Vector(service.begin(), service.end());
  problem.upper_bounds = linalg::Vector(n, opt::kInf);
  problem.upper_bounds[0] = static_cast<double>(pipeline_.simd_width()) * tau0;

  // Chain constraints: g_{i-1} * x_i - x_{i-1} <= 0.
  for (std::size_t i = 1; i < n; ++i) {
    const double g = pipeline_.mean_gain(i - 1);
    if (g <= 0.0) continue;  // zero-gain edge carries no items: no constraint
    opt::LinearInequality chain;
    chain.coefficients = linalg::zeros(n);
    chain.coefficients[i] = g;
    chain.coefficients[i - 1] = -1.0;
    chain.rhs = 0.0;
    chain.label = "chain[" + std::to_string(i) + "]";
    problem.constraints.push_back(std::move(chain));
  }

  // Deadline budget: sum_i b_i x_i <= D.
  opt::LinearInequality budget;
  budget.coefficients = linalg::Vector(config_.b.begin(), config_.b.end());
  budget.rhs = deadline;
  budget.label = "deadline";
  problem.constraints.push_back(std::move(budget));

  return problem;
}

linalg::Vector EnforcedWaitsStrategy::interior_start(Cycles tau0,
                                                     Cycles deadline) const {
  const std::size_t n = pipeline_.size();
  const double rate_cap = static_cast<double>(pipeline_.simd_width()) * tau0;

  // Backward construction: x_i = max(t_i, g_i * x_{i+1}) * (1 + eps) makes
  // every bound and chain constraint strictly slack; shrink eps until the
  // rate cap and deadline budget are also strictly satisfied.
  for (double eps = 1e-2; eps >= 1e-13; eps *= 0.25) {
    linalg::Vector x(n);
    x[n - 1] = pipeline_.service_time(n - 1) * (1.0 + eps);
    for (std::size_t ii = n - 1; ii-- > 0;) {
      const double g = pipeline_.mean_gain(ii);
      x[ii] = std::max(pipeline_.service_time(ii), g * x[ii + 1]) * (1.0 + eps);
    }
    double budget = 0.0;
    for (std::size_t i = 0; i < n; ++i) budget += config_.b[i] * x[i];
    if (x[0] < rate_cap && budget < deadline) return x;
  }
  return {};
}

EnforcedWaitsSchedule EnforcedWaitsStrategy::make_schedule(
    std::vector<Cycles> intervals, const opt::ConvexProblem& problem) const {
  EnforcedWaitsSchedule schedule;
  schedule.firing_intervals = std::move(intervals);
  schedule.waits.resize(pipeline_.size());
  for (NodeIndex i = 0; i < pipeline_.size(); ++i) {
    schedule.waits[i] =
        std::max(0.0, schedule.firing_intervals[i] - pipeline_.service_time(i));
    schedule.deadline_budget_used +=
        config_.b[i] * schedule.firing_intervals[i];
  }
  schedule.predicted_active_fraction = active_fraction(schedule.firing_intervals);
  // Scale the active-set threshold by the largest interval: constraint
  // slacks are in cycles, and later stages routinely run orders of
  // magnitude longer intervals than stage 0, so scaling by x_0 alone
  // misclassified active constraints on those stages.
  const Cycles max_interval = *std::max_element(
      schedule.firing_intervals.begin(), schedule.firing_intervals.end());
  schedule.kkt = opt::check_kkt(
      problem,
      linalg::Vector(schedule.firing_intervals.begin(),
                     schedule.firing_intervals.end()),
      /*active_tolerance=*/1e-6 * (1.0 + max_interval));
  return schedule;
}

util::Result<EnforcedWaitsSchedule> EnforcedWaitsStrategy::solve(
    Cycles tau0, Cycles deadline) const {
  using R = util::Result<EnforcedWaitsSchedule>;
  RIPPLE_REQUIRE(tau0 > 0.0, "tau0 must be positive");
  RIPPLE_REQUIRE(deadline > 0.0, "deadline must be positive");

  const std::vector<Cycles>& lower = minimal_intervals_;
  const double rate_cap = static_cast<double>(pipeline_.simd_width()) * tau0;
  if (lower[0] > rate_cap) {
    return R::failure(
        "infeasible",
        "arrival-rate constraint violated: minimal x_0 = " +
            util::format_double(lower[0], 3) + " exceeds v*tau0 = " +
            util::format_double(rate_cap, 3));
  }
  if (minimal_budget_ > deadline) {
    return R::failure("infeasible",
                      "deadline too tight: minimal budget sum b_i x_i = " +
                          util::format_double(minimal_budget_, 3) +
                          " exceeds D = " + util::format_double(deadline, 3));
  }

  const opt::ConvexProblem problem = build_problem(tau0, deadline);

  // Degenerate feasible region: when the minimal point L already exhausts
  // (numerically) the whole deadline budget, L is the unique feasible point
  // (every feasible x dominates L componentwise).
  if (interior_start(tau0, deadline).empty()) {
    return make_schedule(lower, problem);
  }

  auto pooled = waterfill_solve_pooled(pipeline_, config_.b, tau0, deadline);
  if (!pooled.ok()) {
    return R::failure(pooled.error().code, pooled.error().message);
  }
  EnforcedWaitsSchedule schedule =
      make_schedule(std::move(pooled.value().firing_intervals), problem);

  const linalg::Vector x(schedule.firing_intervals.begin(),
                         schedule.firing_intervals.end());
  const double grad_scale = 1.0 + linalg::norm_inf(problem.gradient(x));
  if (!schedule.kkt.certified(/*primal=*/1e-9 * (1.0 + deadline),
                              /*stationarity=*/1e-8 * grad_scale,
                              /*multiplier=*/1e-8 * grad_scale)) {
    return R::failure(
        "uncertified",
        "closed-form point fails the KKT certificate: primal " +
            scientific(schedule.kkt.primal_infeasibility) + ", stationarity " +
            scientific(schedule.kkt.stationarity_residual) +
            ", min multiplier " + scientific(schedule.kkt.min_multiplier));
  }
  return schedule;
}

}  // namespace ripple::core
