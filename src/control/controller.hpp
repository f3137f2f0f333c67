// The closed-loop controller: rate estimation -> re-planning -> admission.
//
// One Controller sits between the service's ingest side and its executor:
//
//            arrival groups               tick()
//   producers ------> RateEstimator ----------> Replanner ---> PlanStore
//                          |                        |             |
//                          | tau0_hat, se           | shedding    | load()
//                          v                        v             v
//                    admitted_sessions()      (admission cut)   worker
//
// The worker thread owns the write side: it feeds each drain's sorted
// arrival stamps through observe_arrivals() — one estimator group per run of
// equal stamps — plus per-batch worst latencies, and calls tick() once per
// drain. The tick hands the re-planner tau0_hat and its relative standard
// error, so the drift band widens to the estimator's own noise. Readers
// (producer threads checking admission, tests) only touch the PlanStore
// snapshot and the published admission watermark — the estimator itself is
// single-writer and never shared.
//
// observe_arrivals() is the one arrival feed: the service drain, journal
// recovery and the sim replay all call it, so a recovered controller sees
// the groups the live one saw by construction.
//
// Admission: sessions are assumed symmetric (each contributes offered_rate /
// open_sessions). When the re-planner flags shedding, the controller admits
// the largest k with k * offered_rate / open <= feasible_rate — newest
// sessions (highest admission sequence) are cut first, deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "control/plan_store.hpp"
#include "control/rate_estimator.hpp"
#include "control/replanner.hpp"
#include "util/types.hpp"

namespace ripple::control {

struct ControllerConfig {
  RateEstimatorConfig estimator;
  ReplannerConfig replanner;
  /// Force a re-plan (bypassing drift hysteresis) when a batch's worst
  /// observed latency exceeds this fraction of the deadline — the rate
  /// estimate lags reality exactly when queues are building, and eroding
  /// slack is the earliest symptom. <= 0 disables the trigger.
  double slack_trigger = 0.9;
};

struct ControlDecision {
  ReplanOutcome outcome = ReplanOutcome::kKept;
  bool shedding = false;
  bool slack_forced = false;  ///< this tick was forced by the slack trigger
  Cycles tau0_estimate = 0.0;
  Cycles target_tau0 = 0.0;
  PlanPtr plan;
};

struct ControllerStats {
  std::uint64_t ticks = 0;
  std::uint64_t replans = 0;
  std::uint64_t solve_failures = 0;
  std::uint64_t shed_ticks = 0;     ///< ticks spent in shedding state
  std::uint64_t slack_forced = 0;   ///< replans forced by the slack trigger
};

/// The controller's entire mutable state: restoring it and replaying the
/// same observe_arrivals / observe_worst_latency / tick sequence reproduces the
/// uninterrupted run's plans bit for bit. This is the unit the arrival
/// journal (net/journal) snapshots and the kill-and-recover path restores.
struct ControllerCheckpoint {
  RateEstimatorCheckpoint estimator;
  ReplannerCheckpoint replanner;
  Cycles worst_latency = 0.0;  ///< pending worst latency since the last tick
  ControllerStats stats;
};

class Controller {
 public:
  /// Throws std::logic_error when the deadline admits no feasible rate.
  Controller(sdf::PipelineSpec pipeline, core::EnforcedWaitsConfig config,
             Cycles deadline, Cycles initial_tau0,
             ControllerConfig controller = {});

  // --- worker-thread (single-writer) side ---------------------------------

  /// Observe one arrival group of the *offered* stream (shed arrivals
  /// included — admission must track the load it is rejecting): `count`
  /// items stamped `gap` cycles after the previous group.
  void observe_group(Cycles gap, std::uint64_t count) {
    estimator_.observe_group(gap, count);
  }

  /// Feed one drain's offered arrival stamps, sorted ascending: one group
  /// per run of equal stamps, its gap measured from the previous group's
  /// stamp (`last_stamp` for the first). Returns the stamp to carry into the
  /// next call, max(last_stamp, newest stamp).
  Cycles observe_arrivals(const std::vector<Cycles>& sorted_stamps,
                          Cycles last_stamp);

  /// Observe a completed batch's worst end-to-end latency.
  void observe_worst_latency(Cycles latency);

  /// One control interval: decide whether to re-plan / shed at the current
  /// estimate. Call between ingest batches.
  ControlDecision tick();

  // --- any-thread side ----------------------------------------------------

  PlanPtr plan() const noexcept { return replanner_.plan(); }
  std::uint64_t epoch() const noexcept { return replanner_.epoch(); }

  /// How many of `open_sessions` are admitted at the current estimate;
  /// sessions beyond the returned count (newest first) are shed. Equals
  /// open_sessions whenever the estimated rate is feasible.
  std::size_t admitted_sessions(std::size_t open_sessions) const;

  /// The operating point admission is judged at: headroom * tau0_hat. Safe
  /// from any thread only in the estimator's quiescent windows; the service
  /// publishes it to the AdmissionLedger from the worker instead of letting
  /// readers touch the estimator.
  Cycles admission_target_tau0() const noexcept {
    return config_.replanner.headroom * estimator_.tau0();
  }

  const RateEstimator& estimator() const noexcept { return estimator_; }
  const Replanner& replanner() const noexcept { return replanner_; }
  Cycles deadline() const noexcept { return replanner_.deadline(); }
  ControllerStats stats() const noexcept { return stats_; }

  /// Snapshot the full controller state (worker thread, or quiescent).
  ControllerCheckpoint checkpoint() const;
  /// Rebuild from a checkpoint (worker thread, or before start). The
  /// controller must have been constructed with the same pipeline, deadline,
  /// and config as the one that produced the checkpoint — the checkpoint
  /// carries state, not configuration.
  void restore(const ControllerCheckpoint& state);

 private:
  ControllerConfig config_;
  RateEstimator estimator_;
  Replanner replanner_;
  Cycles worst_latency_ = 0.0;  ///< since the last tick
  ControllerStats stats_;
};

}  // namespace ripple::control
