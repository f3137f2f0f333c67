// Hysteresis-gated online re-planning of the enforced-waits schedule.
//
// The re-planner owns the EnforcedWaitsStrategy and the PlanStore. Each
// control tick it is handed the current inter-arrival estimate tau0_hat and
// decides:
//
//   1. Target operating point: solve at headroom * tau0_hat (headroom <= 1
//      plans for a slightly higher rate than estimated, absorbing estimator
//      lag). If that target is below the strategy's feasibility floor
//      min_feasible_tau0(D), the offered rate cannot be served — the target
//      is clamped just above the floor and the decision is flagged
//      `shedding`, telling the admission controller to cut sessions until
//      the admitted rate fits under the plan.
//   2. Hysteresis: re-solve only when the target drifts from the operating
//      point of the published plan by more than the band
//      max(drift_threshold, kNoiseBandSigmas * se) — se being the
//      estimator's relative standard error, so a noisy estimate (Poisson
//      frames) does not replan on its own jitter while a deterministic one
//      (se = 0) keeps the drift_threshold band — and a cooldown of
//      consider() calls has elapsed; or the feasibility state flipped; or
//      the caller forces it (observed-slack trigger). Everything else keeps
//      the published plan — steady state costs a few compares, no solver
//      work. A re-solve is one exact closed-form solve of a few microseconds
//      (BM_ReplanColdSolve in bench/bench_service.cpp).
//
// Solved plans are published through the PlanStore's atomic swap; in-flight
// batches keep executing under the plan they loaded.
#pragma once

#include <cstdint>

#include "control/plan_store.hpp"
#include "core/enforced_waits.hpp"
#include "util/types.hpp"

namespace ripple::control {

/// Width of the noise band in estimator standard errors: a target inside
/// kNoiseBandSigmas * se of the planned operating point is jitter, not drift.
inline constexpr double kNoiseBandSigmas = 3.0;

struct ReplannerConfig {
  /// Relative |target - planned| / planned drift that triggers a re-solve;
  /// the floor of the noise band (see kNoiseBandSigmas).
  double drift_threshold = 0.05;
  /// Solve at headroom * tau0_hat, headroom in (0, 1].
  double headroom = 1.0;
  /// consider() calls that must elapse between re-solves (feasibility flips
  /// and forced calls bypass the cooldown).
  std::uint64_t cooldown_ticks = 1;
  /// Relative margin above min_feasible_tau0 when clamped to the floor in
  /// shed mode (solving exactly on the boundary is numerically hostile).
  double boundary_margin = 1e-6;
};

enum class ReplanOutcome : std::uint8_t {
  kKept,         ///< hysteresis held; published plan unchanged
  kReplanned,    ///< new plan solved and published
  kSolveFailed,  ///< solver rejected the target; published plan unchanged
};

struct ReplanDecision {
  ReplanOutcome outcome = ReplanOutcome::kKept;
  /// True when the offered rate exceeds the feasibility floor: the plan
  /// serves the maximum feasible rate and admission must shed the excess.
  bool shedding = false;
  /// The tau0 the decision targeted (after headroom and floor clamping).
  Cycles target_tau0 = 0.0;
  /// The plan in force after the decision.
  PlanPtr plan;
};

/// The re-planner's full decision state plus the published plan, for journal
/// snapshots (net/journal). The plan's KKT certificate is *not* captured —
/// nothing downstream of publish reads it (hysteresis uses
/// planned_tau0/shedding), so a restored plan has a default certificate
/// until the next re-solve replaces it.
struct ReplannerCheckpoint {
  std::uint64_t ticks = 0;
  std::uint64_t last_replan_tick = 0;
  std::uint64_t replans = 0;
  std::uint64_t solve_failures = 0;
  std::uint64_t plan_epoch = 0;
  Cycles planned_tau0 = 0.0;
  Cycles plan_deadline = 0.0;
  bool shedding = false;
  std::vector<Cycles> waits;
  std::vector<Cycles> firing_intervals;
  double predicted_active_fraction = 1.0;
  Cycles deadline_budget_used = 0.0;
};

class Replanner {
 public:
  /// Solves and publishes the initial plan at initial_tau0 (clamped to the
  /// feasibility floor like any other target). Throws std::logic_error when
  /// the deadline is below the minimal budget — no rate is ever feasible,
  /// which is a configuration error, not a load condition.
  Replanner(sdf::PipelineSpec pipeline, core::EnforcedWaitsConfig config,
            Cycles deadline, Cycles initial_tau0, ReplannerConfig replan);

  /// One control tick at estimate tau0_hat with relative standard error
  /// `relative_se`. `force` bypasses drift hysteresis and cooldown (slack
  /// trigger).
  ReplanDecision consider(Cycles tau0_hat, bool force = false,
                          double relative_se = 0.0);

  const core::EnforcedWaitsStrategy& strategy() const noexcept {
    return strategy_;
  }
  Cycles deadline() const noexcept { return deadline_; }
  /// Feasibility floor min_feasible_tau0(deadline), cached.
  Cycles floor_tau0() const noexcept { return floor_tau0_; }

  /// Thread-safe plan access (the store's atomic load).
  PlanPtr plan() const noexcept { return store_.load(); }
  std::uint64_t epoch() const noexcept { return store_.epoch(); }

  std::uint64_t replans() const noexcept { return replans_; }
  std::uint64_t solve_failures() const noexcept { return solve_failures_; }

  /// Snapshot the decision state + published plan (worker thread).
  ReplannerCheckpoint checkpoint() const;
  /// Rebuild from a checkpoint: hysteresis counters and the published plan
  /// (epoch included) continue exactly where the checkpointed run left off.
  void restore(const ReplannerCheckpoint& state);

 private:
  /// Clamp headroom * tau0_hat to the feasibility floor; sets `shedding`.
  Cycles clamp_target(Cycles tau0_hat, bool& shedding) const;
  /// Solve at target and publish.
  ReplanOutcome solve_and_publish(Cycles target, bool shedding);

  core::EnforcedWaitsStrategy strategy_;
  Cycles deadline_;
  ReplannerConfig config_;
  Cycles floor_tau0_ = 0.0;
  PlanStore store_;
  std::uint64_t ticks_ = 0;
  std::uint64_t last_replan_tick_ = 0;
  std::uint64_t replans_ = 0;
  std::uint64_t solve_failures_ = 0;
};

}  // namespace ripple::control
