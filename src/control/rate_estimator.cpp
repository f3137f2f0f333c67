#include "control/rate_estimator.hpp"

#include <algorithm>
#include <cmath>

namespace ripple::control {

namespace {

/// tau0_hat never drops below this: a window of simultaneous arrivals (zero
/// span) reads as an extreme rate, not as a zero or undefined one.
constexpr Cycles kMinTau0 = 1e-9;

}  // namespace

RateEstimator::RateEstimator(Cycles prior_tau0, RateEstimatorConfig config)
    : config_(config) {
  RIPPLE_REQUIRE(config_.window > 0, "estimator window must be non-empty");
  window_.resize(config_.window);
  reset(prior_tau0);
}

RateEstimate RateEstimator::estimate() const {
  if (!warm() || groups_ == 0) return RateEstimate{prior_, 0.0};
  const std::size_t n = retained();
  const std::size_t start = oldest();
  Cycles span = 0.0;
  double items = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const ArrivalGroup& group = window_[(start + i) % window_.size()];
    span += group.gap;
    items += static_cast<double>(group.count);
  }
  const Cycles tau0 = span / items;
  RateEstimate result{std::max(tau0, kMinTau0), 0.0};
  if (n < 2 || !(span > 0.0)) return result;
  // Ratio-estimator variance: Var(R) ~ sum (g_i - R c_i)^2 / (n (n-1) cbar^2),
  // so the relative error sd(R)/R is sqrt(ss * n / (n-1)) / span.
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const ArrivalGroup& group = window_[(start + i) % window_.size()];
    const double residual = group.gap - tau0 * static_cast<double>(group.count);
    ss += residual * residual;
  }
  const double nd = static_cast<double>(n);
  result.relative_se = std::sqrt(ss * nd / (nd - 1.0)) / span;
  return result;
}

void RateEstimator::reset(Cycles prior_tau0) {
  RIPPLE_REQUIRE(prior_tau0 > 0.0, "prior tau0 must be positive");
  prior_ = prior_tau0;
  groups_ = 0;
  write_idx_ = 0;
}

RateEstimatorCheckpoint RateEstimator::checkpoint() const {
  RateEstimatorCheckpoint state;
  state.prior = prior_;
  state.groups = groups_;
  const std::size_t n = retained();
  const std::size_t start = oldest();
  state.window.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.window.push_back(window_[(start + i) % window_.size()]);
  }
  return state;
}

void RateEstimator::restore(const RateEstimatorCheckpoint& state) {
  RIPPLE_REQUIRE(state.prior > 0.0, "checkpoint prior must be positive");
  RIPPLE_REQUIRE(state.window.size() <= window_.size(),
                 "checkpoint window larger than the configured window");
  RIPPLE_REQUIRE(
      state.window.size() ==
          std::min<std::uint64_t>(state.groups, window_.size()),
      "checkpoint window size inconsistent with its group count");
  for (const ArrivalGroup& group : state.window) {
    RIPPLE_REQUIRE(group.count > 0 && group.gap >= 0.0,
                   "checkpoint holds a malformed arrival group");
  }
  // Retained groups go to slots [0, n): the estimate reads oldest to newest,
  // so where the live window kept them does not matter.
  prior_ = state.prior;
  groups_ = state.groups;
  std::copy(state.window.begin(), state.window.end(), window_.begin());
  write_idx_ = state.window.size() % window_.size();
}

}  // namespace ripple::control
