// Online arrival-rate estimation from arrival groups.
//
// The live service stamps every item of one submit call with the same
// arrival time, so the offered stream reaches the estimator as *groups*: a
// run of equal stamps (one frame, one submit) preceded by the gap since the
// previous group's stamp. The estimator keeps the last `window` groups and
// reports
//
//   tau0_hat = sum(gap) / sum(count)   over the window: items over span
//
// together with the relative standard error of that ratio, which the
// re-planner widens its hysteresis band by (replanner.hpp). Estimating per
// item instead would feed every frame's 63 zero gaps to the estimate and
// read a 64-item Poisson frame stream several times too fast.
//
// Both sums are recomputed at read time, oldest to newest, from the stored
// window: there is no running sum, so a restored window reproduces tau0_hat
// bit for bit and the checkpoint carries nothing but the prior, the group
// count and the window itself. The estimator is single-writer (the shard
// worker, or the replay/recovery caller) and is never shared across threads.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace ripple::control {

struct RateEstimatorConfig {
  /// Unused: the estimator has no EWMA. The field stays only because the
  /// end-to-end benchmark driver still assigns it.
  double alpha = 0.05;
  /// Arrival groups retained: tau0_hat spans exactly this many most-recent
  /// groups (any positive size).
  std::size_t window = 256;
  /// Below this many observed groups the estimate stays pinned to the
  /// prior — a span of two or three frames is noise, not signal.
  std::size_t min_samples = 16;
};

/// One run of equal arrival stamps: `count` items, `gap` cycles after the
/// previous group's stamp.
struct ArrivalGroup {
  Cycles gap = 0.0;
  std::uint64_t count = 0;

  bool operator==(const ArrivalGroup& other) const {
    return gap == other.gap && count == other.count;
  }
};

/// Everything needed to rebuild an estimator bit-identically: the prior, the
/// total group count, and the retained window in oldest-to-newest order.
/// Serialized into journal snapshots (net/journal).
struct RateEstimatorCheckpoint {
  Cycles prior = 0.0;
  std::uint64_t groups = 0;
  std::vector<ArrivalGroup> window;
};

struct RateEstimate {
  Cycles tau0 = 0.0;
  /// Relative standard error of tau0 over the window (0 while cold, with
  /// fewer than two groups, or when every group has the same gap per item).
  double relative_se = 0.0;
};

class RateEstimator {
 public:
  /// `prior_tau0` is reported until min_samples groups have been observed.
  RateEstimator(Cycles prior_tau0, RateEstimatorConfig config);

  /// Observe one arrival group (`count` > 0 items). A negative gap — a stamp
  /// that lands before the previous group's, when producers race — is
  /// clamped to 0: the items count, the span does not grow.
  void observe_group(Cycles gap, std::uint64_t count) {
    RIPPLE_REQUIRE(count > 0, "an arrival group holds at least one item");
    window_[write_idx_] = ArrivalGroup{gap > 0.0 ? gap : 0.0, count};
    if (++write_idx_ == window_.size()) write_idx_ = 0;
    ++groups_;
  }

  /// tau0_hat and its relative standard error (the prior and 0 until warm).
  RateEstimate estimate() const;
  Cycles tau0() const { return estimate().tau0; }
  /// Estimated arrival rate rho0_hat = 1 / tau0_hat.
  double rate() const { return 1.0 / tau0(); }

  /// Groups observed since construction or the last reset.
  std::uint64_t samples() const noexcept { return groups_; }
  bool warm() const noexcept { return groups_ >= config_.min_samples; }

  void reset(Cycles prior_tau0);

  RateEstimatorCheckpoint checkpoint() const;
  /// Rebuild from a checkpoint: the restored estimator reports the same
  /// estimates and warm() transitions as one that observed the history.
  void restore(const RateEstimatorCheckpoint& state);

 private:
  /// Index of the oldest retained group.
  std::size_t oldest() const noexcept {
    return groups_ >= window_.size() ? write_idx_ : 0;
  }
  std::size_t retained() const noexcept {
    return groups_ >= window_.size() ? window_.size()
                                     : static_cast<std::size_t>(groups_);
  }

  RateEstimatorConfig config_;
  Cycles prior_ = 0.0;
  std::uint64_t groups_ = 0;
  std::size_t write_idx_ = 0;  ///< next slot to overwrite
  std::vector<ArrivalGroup> window_;  ///< circular, config_.window slots
};

}  // namespace ripple::control
