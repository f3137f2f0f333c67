// Empirical worst-case parameter calibration (paper Section 6.2).
//
// Both strategies need parameters describing how far transient behavior can
// depart from the average: the per-node queue multipliers b_i for enforced
// waits, and (b, S) for the monolithic strategy. The paper chooses them by
// a raise-and-retest loop: start optimistic (b_i = ceil(g_i), b = 1, S = 1),
// optimize, simulate many seeded trials at probe points of the (tau0, D)
// space, and raise parameters until misses become sufficiently rare. This
// module packages that loop as a reusable algorithm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/enforced_waits.hpp"
#include "core/monolithic.hpp"
#include "sdf/pipeline.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace ripple::calib {

/// One (tau0, D) validation point.
struct Probe {
  Cycles tau0 = 0.0;
  Cycles deadline = 0.0;
};

/// A small probe set spanning the corners and center of the paper's
/// parameter ranges, filtered to points feasible for the given config.
std::vector<Probe> default_probes();

struct CalibrationOptions {
  std::uint64_t trials = 100;           ///< seeds per probe (paper: 100)
  ItemCount inputs_per_trial = 50000;   ///< stream length (paper: 50000)
  double target_miss_free = 0.95;       ///< min fraction of miss-free trials
  int max_rounds = 64;
  double max_multiplier = 64.0;         ///< give-up bound on any b_i
  std::uint64_t base_seed = 0;
  util::ThreadPool* pool = nullptr;
  /// Consecutive trials a pool worker claims per atomic fetch (forwarded to
  /// the trial runners; enforced calibration's lockstep groups claim
  /// max(1, trial_grain / kTrialLanes) groups). Trials are seeded by index,
  /// so this never changes results.
  std::size_t trial_grain = 4;
};

/// Result of one probe evaluation in the final round.
struct ProbeOutcome {
  Probe probe;
  bool feasible = false;
  double miss_free_fraction = 0.0;
  double mean_miss_fraction = 0.0;
  double mean_active_fraction = 0.0;
};

struct EnforcedCalibrationResult {
  bool success = false;
  int rounds = 0;
  core::EnforcedWaitsConfig config;       ///< calibrated b_i
  double worst_miss_free = 0.0;           ///< min across feasible probes
  std::vector<ProbeOutcome> final_outcomes;
  std::vector<std::string> log;           ///< one line per adjustment
};

/// Calibrate the b_i multipliers for enforced waits, starting from
/// `initial` (use EnforcedWaitsConfig::optimistic for the paper's start).
EnforcedCalibrationResult calibrate_enforced_waits(
    const sdf::PipelineSpec& pipeline, const core::EnforcedWaitsConfig& initial,
    const std::vector<Probe>& probes, const CalibrationOptions& options);

struct MonolithicCalibrationResult {
  bool success = false;
  int rounds = 0;
  core::MonolithicConfig config;  ///< calibrated (b, S)
  double worst_miss_free = 0.0;
  std::vector<ProbeOutcome> final_outcomes;
  std::vector<std::string> log;
};

/// Calibrate (b, S) for the monolithic strategy starting from `initial`.
MonolithicCalibrationResult calibrate_monolithic(
    const sdf::PipelineSpec& pipeline, const core::MonolithicConfig& initial,
    const std::vector<Probe>& probes, const CalibrationOptions& options);

}  // namespace ripple::calib
