// Sim-driven closed-loop replay: the deterministic validation harness for
// the online control loop.
//
// The live PipelineService observes wall-clock arrivals, which makes its
// end-to-end behavior timing-dependent — fine for the soak test, useless for
// asserting convergence. replay_trace() runs the *same* controller against a
// synthetic arrival trace in pure virtual time:
//
//   for each chunk of `chunk_items` arrivals:
//     1. draw the chunk's inter-arrival gaps from the offered process;
//     2. attribute arrival j to session j mod `sessions` (symmetric
//        round-robin producers) and apply the current admission cut —
//        arrivals of shed sessions are dropped and their gaps merge into
//        the next admitted arrival's gap, exactly like the live watermark;
//     3. simulate the admitted stream for the chunk under the plan loaded
//        at chunk start (sim::simulate_enforced_waits + TraceArrivals);
//     4. feed every *offered* arrival (as a virtual-time stamp, through
//        the same Controller::observe_arrivals the live drain uses) plus the
//        chunk's worst observed latency to the controller and tick() it,
//        then recompute the admission cut
//        — mirroring the service worker's drain loop, where plan swaps and
//        admission changes land between batches, never inside one.
//
// Because every piece (arrival trace, estimator, solver, simulator) is
// deterministic, a rate-step or rate-ramp replay converges to exactly the
// schedule the offline oracle (solve at the true post-change rate) produces,
// and the tests assert that bit-for-bit via the plan's firing intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "control/controller.hpp"
#include "core/enforced_waits.hpp"
#include "sdf/pipeline.hpp"
#include "util/types.hpp"

namespace ripple::service {

struct ReplayConfig {
  Cycles deadline = 0.0;       ///< end-to-end deadline D (> 0)
  Cycles initial_tau0 = 0.0;   ///< controller prior (> 0)
  /// Worst-case multipliers; empty selects EnforcedWaitsConfig::optimistic.
  std::vector<double> b;
  control::ControllerConfig controller;
  std::size_t chunk_items = 256;  ///< offered arrivals per control interval
  std::size_t chunks = 64;        ///< control intervals to replay
  std::size_t sessions = 4;       ///< symmetric round-robin producers
  std::uint64_t seed = 0;         ///< arrival + gain sampling streams
};

/// One control interval of the replay.
struct ReplayChunk {
  Cycles mean_gap_offered = 0.0;  ///< ground-truth mean gap this chunk
  Cycles tau0_estimate = 0.0;     ///< estimator output after the chunk
  Cycles planned_tau0 = 0.0;      ///< operating point of the plan in force
  std::uint64_t plan_epoch = 0;
  bool shedding = false;
  std::size_t admitted_sessions = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_misses = 0;
  Cycles worst_latency = 0.0;
  double active_fraction = 0.0;
};

struct ReplayReport {
  std::vector<ReplayChunk> chunks;
  /// The plan in force when the replay ended.
  control::PlanPtr final_plan;
  std::uint64_t total_offered = 0;
  std::uint64_t total_admitted = 0;
  std::uint64_t total_shed = 0;
  std::uint64_t total_misses = 0;
  control::ControllerStats controller;
};

/// Replay `offered` through the closed loop. The process is consumed
/// statefully (construct a fresh one per replay). Throws std::logic_error on
/// malformed config, like the live service.
ReplayReport replay_trace(const sdf::PipelineSpec& pipeline,
                          arrivals::ArrivalProcess& offered,
                          const ReplayConfig& config);

}  // namespace ripple::service
